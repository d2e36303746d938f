#!/usr/bin/env python3
"""Benchmark of nablamu: end-to-end and per-layer metrics on three workloads.

Run from the repository root, with the standard library only and
without installing the package::

    python3 bench/run.py --workload oracle --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced and traced

The workloads (``oracle``, ``deep``, ``cli``) live in ``workloads.py``;
``BENCHMARK.json`` at the repository root declares every metric with its
unit, and this script prints exactly those.

A run is a closed loop with one client in one process.  Set-up builds
every input from ``--seed``; the program under test only ever sees the
generated inputs.  The timed phase runs whole passes over the items (one
op per item, the same seeded order every pass, ``frame_index``'s cache
cleared before each pass) until ``--seconds`` have passed, and with
``--trace 0`` until at least ``MIN_OPS`` ops have run, so that the p90
latency has at least ten samples beyond it.  Op outputs are checked
outside the op timers: cheap closed-form checks on every op, equality
with the first pass for every later pass, and the independent reference
evaluator of ``reference.py`` on the outputs of the first pass.  An op
that raises or fails a check is a failed op.

``--trace 0`` reports the end-to-end metrics:

* ``setup_s``: imports, corpus parsing, frame generation and warm-up;
  median of ``SETUPS`` set-ups, each in a fresh interpreter;
* ``ops_per_s``: completed ops per second of a pass, median over passes;
* ``op_p50_ms`` and ``op_tail_ms``: median and p90 latency of completed ops;
* ``peak_rss_mb``: peak resident memory of the process, or for ``cli``
  of the largest child process.

``--trace 1`` runs untraced and traced passes alternately and reports
the per-layer metrics, per traced pass unless named a set-up figure.
Spans are recorded from this benchmark around each public call it makes
into a module and named after that module.  Each layer metric and the
end-to-end metric it should move:

==================  ===================================================
``syntax.*``        set-up parse time and Σ|closure|: ``setup_s``;
                    ``deep`` ``ops_per_s``
``frame.*``         set-up generation time, states analysed per pass:
                    ``setup_s``; ``deep`` ``ops_per_s``
``semantics.*``     ``closure_ordinal_on``, ``approx``, ``sig_approx``
                    time, calls, Σ ordinals, ``frame_index`` cache hits:
                    ``deep`` ``ops_per_s``/``op_p50_ms``; ``oracle``
                    ``ops_per_s``
``annotation.*``    ``conservative``, checkers, relevant parts, entries,
                    failures: ``deep`` ``ops_per_s``
``normalform.*``    ``to_conjunctive`` split into rewrite and oracle,
                    oracle frames, output variables, ``to_equational``:
                    ``oracle`` ``ops_per_s``/``op_tail_ms``
``cli.*``           bare interpreter, cold import, per-verb p50:
                    ``cli`` ``op_p50_ms``
``ops.failed_ratio``  failed over attempted ops of the run
``trace.*``         span coverage of the traced passes and traced over
                    untraced pass time: none
==================  ===================================================

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("oracle", "deep", "cli")
MIN_OPS = 100   # p90 then has at least ten samples beyond it
TAIL = 90
SETUPS = 5


class Tracer:
    """In-memory spans ``(name, start, end, parent, op)``; inactive spans
    cost one attribute test."""

    def __init__(self) -> None:
        self.active = False
        self.spans: List[tuple] = []
        self.stack: List[int] = []
        self.op = -1

    def span(self, name: str):
        return _Span(self, name) if self.active else _NULL


class _Null:
    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL = _Null()


class _Span:
    __slots__ = ("tracer", "name", "start", "index")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.index = len(tr.spans)
        tr.spans.append(None)
        tr.stack.append(self.index)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        end = time.perf_counter()
        tr = self.tracer
        tr.stack.pop()
        parent = tr.stack[-1] if tr.stack else None
        tr.spans[self.index] = (self.name, self.start, end, parent, tr.op)


class Pass:
    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.wall = 0.0
        self.records: List[tuple] = []   # (item index, seconds, error type, digest, problems)
        self.counts: Counter = Counter()
        self.cache: Optional[tuple] = None
        self.spans = (0, 0)


def load_program():
    """Import the package from this checkout's ``src`` and the workloads."""
    sys.path.insert(0, str(SRC))
    try:
        import nablamu
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import nablamu from {SRC}: {exc}")
    if Path(nablamu.__file__).resolve().parent != SRC / "nablamu":
        raise SystemExit(f"bench: nablamu imported from {nablamu.__file__}, not {SRC}")
    import workloads
    return nablamu, workloads


def declared_metrics(trace: bool) -> List[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def nearest_rank(xs: List[float], p: float) -> float:
    xs = sorted(xs)
    return xs[max(1, math.ceil(p / 100 * len(xs))) - 1]


def run_pass(wl, tracer: Tracer, frame_index, traced: bool, kept: Optional[dict]) -> Pass:
    clear = getattr(frame_index, "cache_clear", None)
    if clear is not None:
        clear()
    p = Pass(traced)
    wl.counts = p.counts
    tracer.active = traced
    first_span = len(tracer.spans)
    clock = time.perf_counter
    t0 = clock()
    for idx, item in enumerate(wl.items):
        tracer.op = idx
        start = clock()
        try:
            with tracer.span("op"):
                out = wl.run_op(item)
        except Exception as exc:
            p.records.append((idx, clock() - start, type(exc).__name__, None, []))
            continue
        latency = clock() - start
        p.records.append((idx, latency, None, wl.digest(out), wl.closed_checks(item, out)))
        if kept is not None:
            keep = wl.keep(item, out)
            if keep is not None:
                kept[idx] = keep
    p.wall = clock() - t0
    tracer.active = False
    info = getattr(frame_index, "cache_info", None)
    if info is not None:
        ci = info()
        p.cache = (ci.hits, ci.misses)
    p.spans = (first_span, len(tracer.spans))
    return p


def timed_phase(wl, tracer, frame_index, seconds: float, trace: bool):
    passes: List[Pass] = []
    kept: Dict[int, object] = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_pass(wl, tracer, frame_index, traced, kept if not passes else None))
        ops = sum(1 for p in passes for r in p.records if r[2] is None)
        done = time.perf_counter() - start >= seconds
        if trace:
            done = done and len(passes) >= 2
        else:
            done = done and ops >= MIN_OPS
        if done:
            return passes, kept


def check_outputs(wl, passes: List[Pass], kept: Dict[int, object]):
    """Mark failed records; return (failed record ids, check report lines)."""
    first = {rec[0]: rec[3] for rec in passes[0].records if rec[2] is None}
    bad_ref: Dict[int, List[str]] = {}
    for idx, out in sorted(kept.items()):
        problems = wl.reference_checks(wl.items[idx], out)
        if problems:
            bad_ref[idx] = problems
    failed = set()
    closed_bad = inconsistent = raised = 0
    errors: Counter = Counter()
    examples: List[str] = []
    for pi, p in enumerate(passes):
        for ri, (idx, _, err, digest, problems) in enumerate(p.records):
            if err is not None:
                raised += 1
                errors[err] += 1
                failed.add((pi, ri))
                continue
            if problems:
                closed_bad += 1
                examples.extend(f"{wl.label(wl.items[idx])}: {m}" for m in problems)
            if digest != first.get(idx):
                inconsistent += 1
                examples.append(f"{wl.label(wl.items[idx])}: output differs between passes")
            if problems or digest != first.get(idx) or idx in bad_ref:
                failed.add((pi, ri))
    for idx, problems in bad_ref.items():
        examples.extend(f"{wl.label(wl.items[idx])}: {m}" for m in problems)
    total = sum(len(p.records) for p in passes)
    ok = total - raised
    lines = [
        f"check closed-form: {ok - closed_bad}/{ok} ops pass",
        f"check pass-consistency: {ok - inconsistent}/{ok} ops match the first pass",
        f"check reference: {len(kept) - len(bad_ref)}/{len(kept)} items agree with reference.py",
        f"ops raised: {raised}/{total} {dict(errors) if errors else ''}".rstrip(),
    ]
    lines += [f"  problem: {e}" for e in examples[:10]]
    correct = closed_bad == 0 and inconsistent == 0 and not bad_ref
    return failed, correct, lines


def setup_samples(name: str, seed: int) -> List[float]:
    out = []
    for _ in range(SETUPS - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        out.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return out


def span_totals(spans) -> Dict[str, float]:
    out: Dict[str, float] = defaultdict(float)
    for name, start, end, _, _ in spans:
        out[name] += end - start
    return out


def layer_values(wl, tracer, passes, setup_range, extra_range, extras,
                 verbs, failed_ratio: float) -> Dict[str, float]:
    traced = [p for p in passes if p.traced]
    n = len(traced)
    spans = [s for p in traced for s in tracer.spans[p.spans[0]:p.spans[1]]]
    timed = span_totals(spans)
    covered = sum(end - start for _, start, end, parent, _ in spans
                  if parent is not None and tracer.spans[parent][0] == "op")
    setup = span_totals(tracer.spans[setup_range[0]:setup_range[1]])
    extra = span_totals(tracer.spans[extra_range[0]:extra_range[1]])

    def per_pass(key: str) -> float:
        return sum(p.counts[key] for p in traced) / n

    hits = sum(p.cache[0] for p in traced) / n if traced[0].cache else 0.0
    misses = sum(p.cache[1] for p in traced) / n if traced[0].cache else 0.0
    translate = timed["normalform.translate"] / n
    rewrite = extra["normalform.rewrite"]
    oracle_s = translate - rewrite if rewrite else 0.0
    frames = per_pass("oracle_frames")
    untraced = [p.wall for p in passes if not p.traced]
    values = {
        "syntax.parse_s": setup["syntax.parse"],
        "syntax.closure_formulas": float(wl.closure_formulas),
        "frame.generate_s": setup["frame.generate"],
        "frame.states_analysed": per_pass("states"),
        "semantics.co_s": timed["semantics.co"] / n,
        "semantics.co_calls": per_pass("co_calls"),
        "semantics.stages": per_pass("stages"),
        "semantics.approx_s": timed["semantics.approx"] / n,
        "semantics.sig_approx_s": timed["semantics.sig_approx"] / n,
        "semantics.sig_approx_calls": per_pass("sig_approx_calls"),
        "semantics.index_hits": hits,
        "semantics.index_misses": misses,
        "semantics.index_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "annotation.conservative_s": timed["annotation.conservative"] / n,
        "annotation.check_s": timed["annotation.check"] / n,
        "annotation.verify_s": timed["annotation.verify"] / n,
        "annotation.relevant_s": timed["annotation.relevant"] / n,
        "annotation.entries": per_pass("entries"),
        "annotation.failed": per_pass("annotation_failed"),
        "normalform.translate_s": translate,
        "normalform.rewrite_s": rewrite,
        "normalform.oracle_s": oracle_s,
        "normalform.oracle_frames": frames,
        "normalform.oracle_frames_per_s": frames / oracle_s if oracle_s > 0 else 0.0,
        "normalform.out_vars": per_pass("out_vars"),
        "normalform.to_equational_s": setup["normalform.to_equational"],
        "cli.interp_ms": 0.0,
        "cli.import_ms": 0.0,
        "ops.failed_ratio": failed_ratio,
        "trace.coverage": covered / sum(p.wall for p in traced),
        "trace.overhead_ratio": statistics.median(p.wall for p in traced) / statistics.median(untraced),
    }
    for verb in verbs:
        lat = [r[1] for p in passes for r in p.records
               if r[2] is None and wl.items[r[0]][0] == verb]
        values[f"cli.{verb}_p50_ms"] = nearest_rank(lat, 50) * 1000 if lat else 0.0
    values.update(extras)
    return values


def run_workload(name: str, seed: int, seconds: float, trace: bool, setup_only: bool) -> int:
    t0 = time.perf_counter()
    nablamu, workloads = load_program()
    tracer = Tracer()
    tracer.active = trace
    wl = workloads.WORKLOADS[name](seed, tracer)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        tracer.active = False
        if setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        setup_range = (0, len(tracer.spans))
        passes, kept = timed_phase(wl, tracer, nablamu.frame_index, seconds, trace)
        peak_rss_mb = wl.peak_rss_mb()
        extras = {}
        extra_range = (len(tracer.spans),) * 2
        if trace:
            tracer.active = True
            extras = wl.extra_layer_pass()
            tracer.active = False
            extra_range = (extra_range[0], len(tracer.spans))
        failed, correct, check_lines = check_outputs(wl, passes, kept)
    finally:
        wl.close()

    records = [(pi, ri, r) for pi, p in enumerate(passes) for ri, r in enumerate(p.records)]
    attempted = len(records)
    ok_lat = [r[1] for pi, ri, r in records if (pi, ri) not in failed]
    timed_wall = sum(p.wall for p in passes)
    print(f"workload {name} seed {seed} trace {int(trace)}: {len(passes)} passes of "
          f"{len(wl.items)} ops, {timed_wall:.2f} s timed, {attempted} attempted, "
          f"{len(failed)} failed")
    print(f"  pass wall times (s): {', '.join(f'{p.wall:.3f}' for p in passes)}")
    for line in check_lines:
        print("  " + line)
    if trace:
        values = layer_values(wl, tracer, passes, setup_range, extra_range, extras,
                              workloads.Cli.VERBS, len(failed) / attempted)
    else:
        samples = [setup_s] + setup_samples(name, seed)
        values = {
            "setup_s": statistics.median(samples),
            "ops_per_s": statistics.median(
                sum((pi, ri) not in failed for ri in range(len(p.records))) / p.wall
                for pi, p in enumerate(passes)),
            "op_p50_ms": nearest_rank(ok_lat, 50) * 1000,
            "op_tail_ms": nearest_rank(ok_lat, TAIL) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        beyond = len(ok_lat) - math.ceil(TAIL / 100 * len(ok_lat))
        print(f"  set-up samples (s): {', '.join(f'{s:.4f}' for s in samples)}")
        print(f"  latency samples: {len(ok_lat)} completed ops; op_tail_ms is p{TAIL}"
              f" with {beyond} samples beyond it")
        print(f"  failed_ratio: {len(failed)}/{attempted} = {len(failed) / attempted:.4f}")
    metrics = {}
    for m in declared_metrics(trace):
        if m["name"] not in values:
            raise KeyError(f"declared metric {m['name']} is not measured")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:<34} {values[m['name']]:>14.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results: Dict[str, Dict[str, dict]] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]))
            results.setdefault(name, {})[str(trace)] = json.loads(lines[-1])
    if status:
        return status
    machine = {"nproc": os.cpu_count(), "python": platform.python_version(),
               "platform": platform.platform()}
    print(json.dumps({"seed": seed, "seconds": seconds, "machine": machine,
                      "results": results}))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                        args.setup_only)


if __name__ == "__main__":
    sys.exit(main())
