"""One benchmark segment in a fresh interpreter.

Launched by ``bench/run.py`` from the repository root, with ``PYTHONPATH=src``
and the thread settings already in the environment, so they apply before
numpy loads.  The worker imports the library, runs the workload's warm-up
items, prints ``READY``, runs its items, checks every output against
references computed after the timed region, and prints one JSON line.

Modes:
  setup  warm up, print READY, exit (a set-up time sample)
  run    untraced closed loop over whole blocks within --seconds, or
         over one block of the first --items items
  probe  the workload's probe items, untraced
  trace  the probe items untraced, then the fixed traced item set with a
         span around every call into a library layer
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
import traceback
from collections import namedtuple
from contextlib import contextmanager, nullcontext

import reference
import workloads

import hyperslice as hs

#: Probe items: repeated untraced in the traced run (trace overhead) and at
#: HYPERSLICE_THREADS=1 (parallel speed-up).
PROBE = {"crosscheck": ("c", 12), "exact": ("", 7), "diagonal": ("m", 10)}

#: Size of the fixed traced item set: two crosscheck blocks, one exact block,
#: and the certificates with the first twenty maximizer items.
TRACED_ITEMS = {"crosscheck": 48, "exact": len(next(workloads.blocks("exact", 0))),
                "diagonal": len(workloads.CERTIFY_DIMS) + 20}

#: Output checks: integral vs vertex sum (acceptance test 01), and the
#: relative sanity band every exact route is expected to meet.
INTEGRAL_MATCH = 1e-6
SANITY = 1e-6
MAXIMIZE_ANGLE = 1e-4
MAXIMIZE_VALUE = 1e-9

#: Failures of the baseline, by (failure, family), with the dimensions at
#: which a scan of the first `exact` block of seeds 0..299 (deep items:
#: seeds 0..5) saw them.  They count in `failed`; any other failure makes
#: `correct` false.  ``<route>:err`` is an err that is not an honest bound
#: (ROADMAP north star 3); ``integral:value`` is the closed-form tail being
#: far off when a coordinate is tiny.
KNOWN_DEFECTS = {
    ("vertex_sum:err", "random"): range(5, 13),
    ("vertex_sum:err", "tiny"): range(5, 7),
    ("vertex_sum:err", "deep"): workloads.DEEP_DIMS,
    ("halfspace:err", "random"): range(5, 13),
    ("halfspace:err", "tiny"): range(4, 7),
    ("halfspace:err", "deep"): workloads.DEEP_DIMS,
    ("integral:err", "random"): range(3, 7),
    ("integral:err", "tiny"): range(3, 7),
    ("integral:value", "tiny"): range(3, 7),
}

#: The numbers the checks read from a VolumeResult.
Volume = namedtuple("Volume", "value err count_below")


class Tracer:
    """In-memory spans: [name, start, end, parent span index, item id]."""

    def __init__(self):
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, item_id):
        rec = [name, time.perf_counter(), None,
               self._open[-1] if self._open else None, item_id]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._open.pop()


class NoTracer:
    def span(self, name, item_id):
        return nullcontext()


def execute(item, tracer):
    """Run one item's library calls; returns the raw outputs."""
    iid = item["id"]
    kind = item["kind"]
    out = {}
    if kind in ("crosscheck", "exact"):
        with tracer.span("geometry.make_spec", iid):
            spec = hs.make_section_spec(item["a"], item["t"])
        out["spec"] = spec
        with tracer.span("vertexsum.section", iid):
            out["vertex_sum"] = hs.section_volume_vertex_sum(spec)
        if kind == "crosscheck":
            with tracer.span("integral.section", iid):
                cfg = hs.make_quadrature_config(spec, abs_tol=1e-7)
                out["integral"] = hs.section_volume_integral(spec, cfg)
            with tracer.span("montecarlo.section", iid):
                out["mc"] = hs.mc_section_volume(spec, workloads.MC_SAMPLES, seed=item["mc_seed"])
            if item["halfspace"]:
                with tracer.span("vertexsum.halfspace", iid):
                    out["halfspace"] = hs.halfspace_volume(spec)
                with tracer.span("montecarlo.halfspace", iid):
                    out["mc_halfspace"] = hs.mc_halfspace_volume(
                        spec, workloads.MC_SAMPLES, seed=item["mc_seed"])
        else:
            with tracer.span("integral.section", iid):
                out["integral"] = hs.section_volume_integral(spec)
            with tracer.span("vertexsum.halfspace", iid):
                out["halfspace"] = hs.halfspace_volume(spec)
    elif kind == "maximize":
        with tracer.span("maximizer.maximize", iid):
            out["report"] = hs.maximize_section_volume(
                item["d"], item["t"], starts=64, seed=item["seed"])
    elif kind == "certify":
        with tracer.span("certificates.grid", iid):
            out["grid"] = hs.sign_certificates(item["d"], hs.default_y_grid())
        with tracer.span("certificates.rigorous", iid):
            out["claims"] = hs.certify_signs_rigorous(item["d"])
    else:
        raise ValueError(f"unknown item kind {kind!r}")
    return out


def timed(item, tracer):
    """(outputs or None, latency ms, error text or None) for one item."""
    with tracer.span("item", item["id"]):
        t0 = time.perf_counter()
        try:
            out = execute(item, tracer)
            error = None
        except Exception:  # an item that raises is a failed item, not a crash
            out, error = None, traceback.format_exc(limit=3)
        ms = (time.perf_counter() - t0) * 1e3
    return out, ms, error


def _disk_volume(d):
    return math.pi ** ((d - 1) / 2) / math.gamma((d + 1) / 2) * (math.sqrt(d) / 2) ** (d - 1)


def _mc_check(est, se, exact, scale):
    """(within 6 sigma, outside 3 sigma), both widened by the Poisson
    counting floor 6*scale/n that a zero-hit run cannot beat."""
    floor = 6.0 * scale / workloads.MC_SAMPLES
    diff = abs(est - exact)
    return bool(diff <= 6 * se + floor), bool(diff > 3 * se + floor)


def known_defect(what, family, d):
    return d in KNOWN_DEFECTS.get((what, family), ())


def check(item, out):
    """Record for one finished item: failures, known-defect flags, and the
    per-layer facts the traced run reports."""
    rec = {"failures": [], "unexpected": []}
    kind = item["kind"]

    def fail(what):
        rec["failures"].append(what)
        if not known_defect(what, item["family"], item["d"]):
            rec["unexpected"].append(what)

    if kind == "crosscheck":
        vs = out["vertex_sum"].value
        if abs(out["integral"].value - vs) > INTEGRAL_MATCH * max(1.0, vs):
            fail("integral")
        disk = _disk_volume(item["d"])
        est, se = out["mc"]
        ok, miss3 = _mc_check(est, se, vs, disk)
        rec["mc"] = [{"accept": est / disk, "rel_se": se / est if est > 0 else None,
                      "miss3": miss3}]
        if not ok:
            fail("mc_section")
        if "halfspace" in out:
            hest, hse = out["mc_halfspace"]
            ok, miss3 = _mc_check(hest, hse, out["halfspace"].value, 1.0)
            rec["mc"].append({"miss3": miss3})
            if not ok:
                fail("mc_halfspace")
        rec["count_below"] = out["vertex_sum"].count_below
    elif kind == "exact":
        spec = out["spec"]
        a, b = [float(x) for x in spec.direction], float(spec.offset)
        section = reference.section_volume(a, b)
        refs = {"vertex_sum": section, "integral": section,
                "halfspace": reference.halfspace_volume(a, b)}
        rec["violations"] = []
        for route, ref in refs.items():
            res = out[route]
            if reference.violates(res.value, res.err, ref):
                rec["violations"].append(route)
                fail(f"{route}:err")
            if abs(res.value - float(ref)) > SANITY * max(1.0, abs(float(ref))):
                fail(f"{route}:value")
        rec["count_below"] = out["vertex_sum"].count_below
        rec["analytic_tail"] = bool(hs.make_quadrature_config(spec).analytic_tail)
    elif kind == "maximize":
        rep = out["report"]
        closed = rep.diagonal_volume
        if not (rep.angle_to_diagonal < MAXIMIZE_ANGLE
                and abs(rep.best_volume - closed) < MAXIMIZE_VALUE * closed):
            fail("maximize")
        rec["starts"], rec["converged"] = rep.starts, rep.converged_starts
    elif kind == "certify":
        claims = out["claims"]
        rec["claims"] = [len(claims), sum(bool(v) for v in claims.values())]
        if not out["grid"].roots_excluded:
            fail("grid")
        if not all(claims.values()):
            fail("rigorous")
    return rec


def run_items(items, tracer, deep_classify=False):
    records = []
    for item in items:
        out, ms, error = timed(item, tracer)
        if deep_classify and out is not None and item["family"] == "deep":
            with tracer.span("geometry.classify", item["id"]):
                hs.classify_cut(out["spec"])
        records.append((item, compact(out), ms, error))
    return records


def compact(out):
    """Drop everything the checks do not read: a VolumeResult's cut holds
    every near-side vertex, which would pile up across deep items."""
    if out is None:
        return None
    return {k: Volume(v.value, v.err, v.cut.count_below) if isinstance(v, hs.VolumeResult) else v
            for k, v in out.items()}


def run_blocks(blocks, seconds):
    """Closed loop, one caller, over whole blocks.  Another block starts
    only if, at the pace of the last one, it ends within `seconds`; the
    first block always runs."""
    tracer = NoTracer()
    records = []
    start = time.perf_counter()
    for block in blocks:
        block_start = time.perf_counter()
        records += run_items(block, tracer)
        now = time.perf_counter()
        if now - start + (now - block_start) > seconds:
            break
    return records, time.perf_counter() - start


def probe_items(workload, seed):
    prefix, count = PROBE[workload]
    items = [it for it in workloads.first_items(workload, seed, 200)
             if it["id"].startswith(prefix)]
    return items[:count]


def finish(records):
    out = []
    for item, res, ms, error in records:
        if error is not None:
            rec = {"failures": ["raised"], "unexpected": ["raised"], "error": error}
        else:
            rec = check(item, res)
        rec.update(id=item["id"], kind=item["kind"], family=item["family"],
                   d=item["d"], ms=ms, item=item)
        out.append(rec)
    return out


def blas_info():
    import numpy

    cfg = getattr(numpy.__config__, "CONFIG", {}) or {}
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {"name": blas.get("name"), "version": blas.get("version"),
            "numpy": numpy.__version__}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("setup", "run", "probe", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--items", type=int, default=None)
    args = p.parse_args(argv)

    run_items(workloads.WARMUP[args.workload], NoTracer())
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    result = {"mode": args.mode, "workload": args.workload, "seed": args.seed}
    if args.mode == "run":
        if args.items is None:
            blocks = workloads.blocks(args.workload, args.seed)
        else:
            blocks = [workloads.first_items(args.workload, args.seed, args.items)]
        records, wall = run_blocks(blocks, args.seconds)
        result["wall_s"] = wall
    else:
        records = run_items(probe_items(args.workload, args.seed), NoTracer())
        if args.mode == "trace":
            result["probe"] = [{"id": it["id"], "ms": ms} for it, _, ms, _ in records]
            tracer = Tracer()
            items = workloads.first_items(args.workload, args.seed,
                                          TRACED_ITEMS[args.workload])
            records = run_items(items, tracer, deep_classify=True)
            result["spans"] = tracer.spans
    result["items"] = finish(records)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["blas"] = blas_info()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
