"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one op
per item in ``run_op`` through the public API of ``nablamu``, applies
the cheap closed-form output checks in ``closed_checks`` and the
reference-evaluator checks in ``reference_checks``.  Calls into a
module are wrapped in tracer spans named after that module.

Why each workload exists:

* ``oracle``: ``to_conjunctive`` with the default oracle on the 36
  systems of acceptance test 08.  Frames are many and tiny, stage counts
  low, and each frame evaluates two systems, so per-frame overhead and
  batching dominate; the rewrite itself is below 1 %.
* ``deep``: tower frames ``czarnecki(n, k)`` with up to about 1200
  stages, and the two-variable corpus on random frames of 32-96 states.
  Per-stage and per-state work dominate and ``annotation`` is busy;
  batching across frames cannot help here, so its prediction is no
  change.
* ``cli``: sequential ``python -m nablamu <verb>`` runs with
  ``PYTHONPATH=src``.  Users pay the cold start on every call, so a gain
  elsewhere that costs start-up time shows here.
"""

from __future__ import annotations

import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import zlib
from collections import Counter
from pathlib import Path
from random import Random
from typing import Dict, List, Tuple

from nablamu import (
    Var,
    approx,
    check_relevant,
    check_well_annotation,
    closure,
    closure_ordinal_on,
    conservative,
    czarnecki,
    czarnecki_formula,
    chain,
    desugar,
    enumerate_frames,
    extract_relevant,
    format_annotation,
    format_formula,
    format_frame,
    format_system,
    is_conjunctive,
    parse_annotation,
    parse_formula,
    parse_frame,
    parse_system,
    random_frame,
    sig_approx,
    to_conjunctive,
    to_equational,
    verify_conservative,
)

from reference import Stages, init_value, system_props

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"

# The acceptance-test corpus: ``tests/corpus/*.mes`` and ``FORMULA_CORPUS``.
sys.path.insert(0, str(ROOT / "tests"))
import conftest  # noqa: E402

FORMULA_CORPUS = conftest.FORMULA_CORPUS


def corpus_systems(tracer) -> List[Tuple[str, object]]:
    with tracer.span("syntax.parse"):
        return conftest.corpus_systems()


def entries_of(theta) -> set:
    return {(s, f, a.to_int()) for s, ann in theta.items() for f, a in ann}


class Workload:
    """One workload: seeded inputs, one op per item, output checks."""

    name = ""

    def __init__(self, seed: int, tracer) -> None:
        self.seed = seed
        self.rng = Random(seed)
        self.tracer = tracer
        self.items: List[Tuple] = []
        self.counts: Counter = Counter()
        self.closure_formulas = 0

    def setup(self) -> None:
        raise NotImplementedError

    def run_op(self, item):
        raise NotImplementedError

    def label(self, item) -> str:
        return str(item[1])

    def closed_checks(self, item, out) -> List[str]:
        raise NotImplementedError

    def digest(self, out) -> int:
        raise NotImplementedError

    def keep(self, item, out):
        """What of the first output of ``item`` to keep for the reference
        checks; None keeps nothing."""
        return out

    def reference_checks(self, item, out) -> List[str]:
        raise NotImplementedError

    def extra_layer_pass(self) -> Dict[str, float]:
        """Calls made after the timed passes of a traced run; returns
        per-layer values that are not span sums."""
        return {}

    def peak_rss_mb(self) -> float:
        """Peak resident memory the ops have used so far."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Remove what set-up wrote."""

    def _closure_total(self, systems) -> None:
        with self.tracer.span("syntax.closure"):
            self.closure_formulas = sum(len(closure(s)) for s in systems)


# ---------------------------------------------------------------------------


class Oracle(Workload):
    name = "oracle"
    SAMPLE = 8          # systems checked against the reference evaluator
    RANDOM_FRAMES = 24  # seeded reference frames per sampled system
    EXHAUSTIVE = 24     # exhaustive oracle frames re-checked per sampled system
    LABELS = 40         # oracle closure ordinals re-checked per sampled system

    def setup(self) -> None:
        tr = self.tracer
        systems = corpus_systems(tr)
        with tr.span("syntax.parse"):
            formulas = [parse_formula(t, keep_sugar=True) for t in FORMULA_CORPUS]
        with tr.span("normalform.to_equational"):
            eqfs = [to_equational(f) for f in formulas]
        named = systems + [(f"formula_{i}", e) for i, e in enumerate(eqfs)]
        self._closure_total([e.system for _, e in named])
        self.rng.shuffle(named)
        self.items = named
        self.props = {name: system_props(e.system) for name, e in named}
        self.sample = set(self.rng.sample([n for n, _ in named], self.SAMPLE))
        self.exhaustive: Dict[Tuple[str, ...], tuple] = {}

        # Fill the oracle's exhaustive-frame cache: one call per distinct
        # proposition set, on its smallest system.
        smallest: Dict[Tuple[str, ...], object] = {}
        for name, eqf in sorted(named, key=lambda ne: len(format_system(ne[1]))):
            smallest.setdefault(self.props[name], eqf)
        for eqf in smallest.values():
            to_conjunctive(eqf)

    def label(self, item) -> str:
        return item[0]

    def run_op(self, item):
        _, eqf = item
        with self.tracer.span("normalform.translate"):
            out, rep = to_conjunctive(eqf)
        self.counts["oracle_frames"] += rep.frames_checked
        self.counts["out_vars"] += len(out.system.vars)
        return out, rep

    def closed_checks(self, item, res) -> List[str]:
        out, rep = res
        problems = []
        if not is_conjunctive(out.system):
            problems.append("output is not conjunctive")
        if rep.mismatches != ():
            problems.append(f"{len(rep.mismatches)} oracle mismatches")
        return problems

    def digest(self, res) -> int:
        out, rep = res
        return hash((format_system(out), rep.frames_checked, rep.closure_ordinals))

    def keep(self, item, res):
        # Only the output system and a sample of the exhaustive-frame
        # ordinals, so that kept outputs barely add to the heap.
        name = item[0]
        if name not in self.sample:
            return None
        out, rep = res
        labelled = []
        for label, co_in, _ in rep.closure_ordinals:
            m = re.fullmatch(r"E(\d+)#(\d+)", label)
            if m:
                labelled.append((int(m.group(1)), int(m.group(2)), co_in))
        rng = Random(self.seed ^ zlib.crc32(name.encode()))
        return out, rng.sample(labelled, min(self.LABELS, len(labelled)))

    def reference_checks(self, item, kept) -> List[str]:
        # Check frames are built here, not in set-up, so that they do not
        # enlarge the heap the timed passes run with.
        name, eqf = item
        out, labelled = kept
        props = self.props[name]
        if props not in self.exhaustive:
            self.exhaustive[props] = tuple(enumerate_frames(3, props))
        pool = self.exhaustive[props]
        rng = Random(self.seed ^ zlib.crc32(name.encode()) ^ 1)
        frames = [random_frame(1 + rng.randrange(8), edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
                               props=props, seed=rng.randrange(1 << 30))
                  for _ in range(self.RANDOM_FRAMES)]
        frames += rng.sample(pool, min(self.EXHAUSTIVE, len(pool)))
        problems = []
        for fr in frames:
            if init_value(eqf, fr) != init_value(out, fr):
                problems.append(f"denotation differs on {fr!r}")
        for n, i, co_in in labelled:
            fr = pool[i] if i < len(pool) else None
            if fr is None or len(fr.states) != n:
                problems.append(f"oracle frame E{n}#{i} is not exhaustive frame {i}")
            elif Stages(eqf.system, fr).closure_ordinal(eqf.init) != co_in:
                problems.append(f"input closure ordinal wrong on E{n}#{i}")
        return problems

    def extra_layer_pass(self) -> Dict[str, float]:
        for _, eqf in self.items:
            with self.tracer.span("normalform.rewrite"):
                to_conjunctive(eqf, exhaustive_max=1, random_count=0)
        return {}


# ---------------------------------------------------------------------------


class Deep(Workload):
    name = "deep"
    TOWERS = ((1, 1200), (2, 24), (3, 7), (4, 4))
    SIZES = (32, 64, 96)
    DEGREE = 2.5  # expected out-degree of the random frames
    SIGS = tuple((i, j) for i in range(5) for j in range(5))

    def setup(self) -> None:
        tr = self.tracer
        with tr.span("syntax.parse"):
            pairs = conftest.two_variable_corpus()
        with tr.span("normalform.to_equational"):
            towers = {n: to_equational(desugar(czarnecki_formula(n))) for n, _ in self.TOWERS}
        with tr.span("frame.generate"):
            items = [("tower", f"czarnecki({n},{k})", towers[n], czarnecki(n, k), n * k + 1)
                     for n, k in self.TOWERS]
            for name, eqf in pairs:
                for size in self.SIZES:
                    frame = random_frame(size, edge_prob=self.DEGREE / size, props=("p", "q"),
                                         seed=self.rng.randrange(1 << 30))
                    items.append(("sandwich", f"{name}@{size}", eqf, frame, None))
            warm = random_frame(8, edge_prob=0.3, props=("p", "q"), seed=self.seed)
        self._closure_total([it[2].system for it in items])
        self.rng.shuffle(items)
        self.items = items
        self.run_op(("sandwich", "warm-up", pairs[0][1], warm, None))
        self.counts.clear()

    def run_op(self, item):
        kind, _, eqf, frame, _ = item
        tr, system = self.tracer, eqf.system
        with tr.span("semantics.co"):
            co = closure_ordinal_on(frame, eqf)
        with tr.span("annotation.conservative"):
            theta = conservative(system, frame)
        with tr.span("annotation.check"):
            chk = check_well_annotation(theta, system, frame=frame)
        with tr.span("annotation.verify"):
            ver = verify_conservative(theta, system, frame=frame)
        self.counts["co_calls"] += 1
        self.counts["stages"] += co
        self.counts["states"] += len(frame.states)
        self.counts["entries"] += sum(len(ann) for _, ann in theta.items())
        if kind == "tower":
            try:
                with tr.span("annotation.relevant"):
                    _, theta2, phi2 = extract_relevant(theta, system, eqf.init)
                    rel = check_relevant(phi2, theta2, system)
            except Exception:
                self.counts["annotation_failed"] += 1
                raise
            return co, theta, chk, ver, rel
        sandwich = []
        for i, j in self.SIGS:
            total = i + j
            for v in system.vars:
                psi = Var(v)
                with tr.span("semantics.sig_approx"):
                    lo = sig_approx(psi, (i, j), system, frame)
                with tr.span("semantics.approx"):
                    mid = approx(psi, total, system, frame)
                with tr.span("semantics.sig_approx"):
                    hi = sig_approx(psi, (total, total), system, frame)
                sandwich.append((lo, mid, hi))
        self.counts["sig_approx_calls"] += 2 * len(sandwich)
        return co, theta, chk, ver, tuple(sandwich)

    def closed_checks(self, item, res) -> List[str]:
        kind, _, _, _, tower_co = item
        co, _, chk, ver, extra = res
        problems = []
        if chk:
            problems.append(f"check_well_annotation found {len(chk)} violations")
        if ver:
            problems.append(f"verify_conservative found {len(ver)} violations")
        if kind == "tower":
            if co != tower_co:
                problems.append(f"tower closure ordinal {co}, expected {tower_co}")
            if extra:
                problems.append(f"check_relevant found {len(extra)} violations")
        elif not all(lo <= mid <= hi for lo, mid, hi in extra):
            problems.append("signature sandwich lo <= mid <= hi fails")
        return problems

    def digest(self, res) -> int:
        co, theta, chk, ver, extra = res
        return hash((co, theta, len(chk), len(ver), len(extra) if isinstance(extra, list) else extra))

    def reference_checks(self, item, res) -> List[str]:
        kind, _, eqf, frame, _ = item
        co, theta, _, _, extra = res
        system = eqf.system
        ref = Stages(system, frame, closure(system))
        problems = []
        if co != ref.closure_ordinal(eqf.init):
            problems.append(f"closure ordinal {co}, reference {ref.closure_ordinal(eqf.init)}")
        if entries_of(theta) != ref.least_stage_entries():
            problems.append("conservative annotation differs from reference least stages")
        if kind == "sandwich":
            memo: Dict = {}
            k = 0
            for i, j in self.SIGS:
                total = i + j
                for v in system.vars:
                    psi = Var(v)
                    want = (ref.sig_approx(psi, (i, j), memo), ref.approx(psi, total),
                            ref.sig_approx(psi, (total, total), memo))
                    if extra[k] != want:
                        problems.append(f"sandwich values differ at {v} under {(i, j)}")
                    k += 1
        return problems


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    VERBS = ("parse", "eval", "co", "annotate", "check-ann", "conjunctive", "gen")
    REF_FRAMES = 8  # seeded frames per conjunctive output
    PROBES = 15     # interpreter and import start-ups timed in the traced run

    def setup(self) -> None:
        tr, rng = self.tracer, self.rng
        self.dir = WORK / f"cli-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        systems = corpus_systems(tr)
        with tr.span("syntax.parse"):
            formulas = [parse_formula(t, keep_sugar=True) for t in FORMULA_CORPUS]
        with tr.span("normalform.to_equational"):
            formula_systems = [(f"formula_{i}", to_equational(f)) for i, f in enumerate(formulas)]
        self._closure_total([e.system for _, e in systems + formula_systems])
        self.systems = dict(systems + formula_systems)
        with tr.span("frame.generate"):
            self.frames = {
                name: random_frame(rng.randint(6, 12), edge_prob=rng.choice((0.2, 0.3, 0.4)),
                                   props=("p", "q"), seed=rng.randrange(1 << 30))
                for name, _ in systems
            }
            self.gens = [("random", rng.randint(4, 10), rng.randrange(1 << 30)) for _ in range(4)]
            self.gens += [("czarnecki", 2, 3), ("chain", 6, None)]
        items = []
        for i, text in enumerate(FORMULA_CORPUS):
            items.append(("parse", i, ["--formula", text, "--desugar"]))
        for name, eqf in systems:
            sysf = str(conftest.CORPUS_DIR / f"{name}.mes")
            framef = self.dir / f"{name}.frame"
            framef.write_text(format_frame(self.frames[name]))
            annf = self.dir / f"{name}.ann"
            annf.write_text(format_annotation(conservative(eqf.system, self.frames[name])))
            io = ["--system", sysf, "--frame", str(framef)]
            items += [("eval", name, io), ("co", name, io), ("annotate", name, io),
                      ("check-ann", name, io + ["--ann", str(annf)])]
        # Two-proposition systems spend their time in the oracle, which the
        # oracle workload measures; here the conjunctive verb runs on the
        # smaller ones, about 15 % of all invocations, so that p90 falls
        # inside this group rather than at its edge.
        for name, eqf in systems + formula_systems:
            if len(system_props(eqf.system)) <= 1:
                sysf = self.dir / f"{name}.mes"
                sysf.write_text(format_system(eqf))
                items.append(("conjunctive", name, ["--system", str(sysf)]))
        for i, (kind, a, b) in enumerate(self.gens):
            if kind == "random":
                args = ["random", "--size", str(a), "--seed", str(b)]
            elif kind == "czarnecki":
                args = ["czarnecki", "--n", str(a), "--k", str(b)]
            else:
                args = ["chain", "--k", str(a)]
            items.append(("gen", i, args))
        rng.shuffle(items)
        self.items = items
        self.env = dict(os.environ, PYTHONPATH="src",
                        PYTHONPYCACHEPREFIX=str(WORK / "pycache"))
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        # Every verb imports the whole package, so one run warms the
        # bytecode cache for all of them.
        self.child_rss_kb = 0
        self.run_op(next(it for it in items if it[0] == "parse"))
        self.counts.clear()
        self.child_rss_kb = 0

    def peak_rss_mb(self) -> float:
        return self.child_rss_kb / 1024

    def label(self, item) -> str:
        return f"{item[0]} {item[1]}"

    def invoke(self, args: List[str]) -> Tuple[int, str, str]:
        """Run the interpreter on ``args``; record the child's peak memory."""
        with open(self.dir / "stderr", "w+b") as err:
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            errtext = err.read()
        self.child_rss_kb = max(self.child_rss_kb, usage.ru_maxrss)
        return proc.returncode, out.decode(), errtext.decode(errors="replace")

    def run_op(self, item):
        verb, key, args = item
        with self.tracer.span(f"cli.{verb}"):
            res = self.invoke(["-m", "nablamu", verb, *args])
        if verb in ("eval", "co", "annotate", "check-ann"):
            self.counts["states"] += len(self.frames[key].states)
        return res

    def closed_checks(self, item, res) -> List[str]:
        code, _, err = res
        return [] if code == 0 else [f"exit code {code}: {err.strip()[-200:]}"]

    def digest(self, res) -> int:
        return hash(res[:2])

    def reference_checks(self, item, res) -> List[str]:
        verb, key, _ = item
        out = res[1]
        if verb == "parse":
            want = format_formula(desugar(parse_formula(FORMULA_CORPUS[key], keep_sugar=True)))
            return [] if out.strip() == want else [f"parse printed {out.strip()!r}"]
        if verb == "gen":
            kind, a, b = self.gens[key]
            if kind == "random":
                want = random_frame(a, edge_prob=0.35, props=("p", "q"), seed=b)
            elif kind == "czarnecki":
                want = czarnecki(a, b)
            else:
                want = chain(a)
            return [] if parse_frame(out) == want else ["gen printed another frame"]
        eqf = self.systems[key]
        if verb == "conjunctive":
            return self._check_conjunctive(key, eqf, out)
        frame = self.frames[key]
        ref = Stages(eqf.system, frame, closure(eqf.system))
        if verb == "eval":
            want = " ".join(s for s in frame.states if s in ref.final[eqf.init])
            return [] if out.strip() == want else [f"eval printed {out.strip()!r}, reference {want!r}"]
        if verb == "co":
            want = ref.closure_ordinal(eqf.init)
            return [] if out.strip() == str(want) else [f"co printed {out.strip()!r}, reference {want}"]
        if verb == "annotate":
            got = entries_of(parse_annotation(out, frame, eqf.system.vars))
            return [] if got == ref.least_stage_entries() else ["annotate differs from reference"]
        return [] if out.strip() == "OK (0 violations)" else [f"check-ann printed {out.strip()[-200:]!r}"]

    def _check_conjunctive(self, key, eqf, out: str) -> List[str]:
        lines = out.splitlines()
        if not lines or not re.fullmatch(r"# frames checked: \d+; mismatches: 0", lines[-1]):
            return ["conjunctive did not report 0 mismatches"]
        conj = parse_system("\n".join(ln for ln in lines if not ln.startswith("#")))
        problems = [] if is_conjunctive(conj.system) else ["conjunctive output is not conjunctive"]
        rng = Random(self.seed ^ zlib.crc32(key.encode()))
        props = system_props(eqf.system)
        for _ in range(self.REF_FRAMES):
            fr = random_frame(1 + rng.randrange(8), edge_prob=rng.choice((0.15, 0.3, 0.5, 0.7)),
                              props=props, seed=rng.randrange(1 << 30))
            if init_value(eqf, fr) != init_value(conj, fr):
                problems.append(f"conjunctive output denotes another set on {fr!r}")
        return problems

    def extra_layer_pass(self) -> Dict[str, float]:
        def median_ms(args: List[str]) -> float:
            times = []
            for _ in range(self.PROBES):
                start = time.perf_counter()
                self.invoke(args)
                times.append(time.perf_counter() - start)
            return statistics.median(times) * 1000

        interp = median_ms(["-c", "pass"])
        return {"cli.interp_ms": interp,
                "cli.import_ms": median_ms(["-c", "import nablamu.cli"]) - interp}

    def close(self) -> None:
        shutil.rmtree(getattr(self, "dir", WORK / "none"), ignore_errors=True)


WORKLOADS = {w.name: w for w in (Oracle, Deep, Cli)}
