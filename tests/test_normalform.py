"""Compilation of least-fixpoint formulas to equation systems and the
conjunctive-shape rewriting with its semantic oracle."""

import hashlib
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from random import Random

import pytest

from nablamu import (
    Frame,
    NotSigmaFragment,
    TranslationFailure,
    TranslationReport,
    UnguardedVariable,
    denotation,
    desugar,
    enumerate_frames,
    eval_formula,
    format_formula,
    format_system,
    is_conjunctive,
    parse_formula,
    parse_system,
    to_conjunctive,
    to_equational,
)
from nablamu import normalform
from nablamu.normalform import _oracle_batches
from nablamu.semantics import FrameBatch

from conftest import (FORMULA_CORPUS, _ref_oracle_frames, corpus_formulas, full_corpus,
                      random_system, ref_oracle)

TESTS = Path(__file__).resolve().parent

# An open binder shared by two members, two sibling open binders, and an
# open binder that shadows an enclosing one.
SHARED_BINDER = "mu z. and{nab{mu x. or{nab{x}, nab{z}}}, or{nab{mu x. or{nab{x}, nab{z}}}, p}}"
SIBLING_BINDERS = "mu z. and{nab{mu x. or{nab{x}, nab{z}}}, nab{mu y. or{nab{y}, nab{z}, p}}}"
SHADOWED_BINDER = "mu x. or{p, dia (mu y. or{dia x, dia (mu x. or{q, dia x, dia y})})}"


# ------------------------------------------------- formula -> equations

def test_root_fixpoint_becomes_the_initial_equation():
    eqf = to_equational(parse_formula("mu x. or{p, dia x}", keep_sugar=True))
    assert format_system(eqf) == "system\ninit: x\nx = or{dia x, p}\n"


def test_nested_fixpoints_unfold_into_guarded_equations():
    eqf = to_equational(parse_formula("mu x. or{p, dia (mu y. or{x, dia y})}"))
    assert format_system(eqf) == (
        "system\n"
        "init: x\n"
        "x = or{and{nab{y}, nab{}}, p}\n"
        "y = or{and{nab{y}, nab{}}, or{and{nab{y}, nab{}}, p}}\n"
    )


def test_closed_inner_fixpoints_stay_as_leaves():
    eqf = to_equational(parse_formula("mu x. or{nab{x}, mu y. or{p, dia y}}"))
    assert format_system(eqf) == (
        "system\ninit: x\nx = or{mu y. or{and{nab{y}, nab{}}, p}, nab{x}}\n"
    )
    eqf = to_equational(parse_formula("mu x. or{nab{x}, nu y. dia y}"))
    assert "nu y." in format_system(eqf)


def test_binder_colliding_with_proposition_is_renamed():
    eqf = to_equational(parse_formula("mu x. or{dia (mu q. or{x, dia q}), q}"))
    assert eqf.system.vars == ("x", "q2")
    assert format_formula(eqf.system.eq("x")) == "or{and{nab{q2}, nab{}}, q}"


def test_fixpoint_free_formula_gets_the_two_conjunct_gadget():
    eqf = to_equational(parse_formula("box p"))
    assert format_system(eqf) == (
        "system\n"
        "init: _y0\n"
        "_y0 = and{or{nab{_y1}, nab{ff, p}}, or{nab{ff, p}, nab{}}}\n"
        "_y1 = and{nab{_y1}, nab{}}\n"
    )


def test_free_variables_are_rejected():
    with pytest.raises(NotSigmaFragment):
        to_equational(parse_formula("dia x", vars={"x"}))


def test_open_greatest_fixpoints_are_rejected():
    phi = parse_formula("mu x. or{p, nu y. and{nab{y}, nab{x}}}")
    with pytest.raises(NotSigmaFragment):
        to_equational(phi)


def test_unguarded_self_reference_is_rejected():
    with pytest.raises(UnguardedVariable):
        to_equational(parse_formula("mu x. or{x, p}"))


def test_unguarded_cross_reference_is_resolved():
    # the inner variable occurs unguarded in the outer body; resolution
    # substitutes the defining body instead of failing
    phi = parse_formula("mu x. or{p, dia (mu y. or{x, dia y})}")
    eqf = to_equational(phi)
    for v in eqf.system.vars:
        rendered = format_formula(eqf.system.eq(v))
        assert not rendered.startswith("x") and " x" not in rendered.replace(
            "nab{x}", "")


def test_shared_open_binder_becomes_one_equation():
    eqf = to_equational(parse_formula(SHARED_BINDER))
    assert format_system(eqf) == (
        "system\ninit: z\nz = and{nab{x}, or{nab{x}, p}}\nx = or{nab{x}, nab{z}}\n")


def test_sibling_and_shadowed_binders_get_their_own_equations():
    eqf = to_equational(parse_formula(SIBLING_BINDERS))
    assert format_system(eqf) == (
        "system\ninit: z\nz = and{nab{x}, nab{y}}\n"
        "x = or{nab{x}, nab{z}}\ny = or{nab{y}, nab{z}, p}\n")
    eqf = to_equational(parse_formula(SHADOWED_BINDER, keep_sugar=True))
    assert format_system(eqf) == (
        "system\ninit: x\nx = or{dia y, p}\ny = or{dia x, dia x2}\n"
        "x2 = or{dia x2, dia y, q}\n")


def test_equational_form_denotes_its_formula_on_small_frames():
    for text in FORMULA_CORPUS + (SHARED_BINDER, SIBLING_BINDERS, SHADOWED_BINDER):
        phi = parse_formula(text, keep_sugar=True)
        eqf = to_equational(phi)
        props = tuple(sorted(normalform._prop_names((phi,))))
        for frame in enumerate_frames(3, props):
            assert denotation(eqf, frame) == eval_formula(phi, frame), (text, frame)


# --------------------------------------------- systems -> conjunctive shape

def test_nested_cover_is_hoisted():
    eqf = parse_system("system\ninit: x\nx = nab{nab{x}}\n")
    out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert format_system(out) == (
        "system\ninit: x\nx = nab{_y0}\n_y0 = nab{x}\n"
    )
    assert report.fresh == (("_y0", "hoisted cover argument nab{x}"),)
    assert report.mismatches == ()


def test_closed_payloads_become_gadget_variables():
    eqf = parse_system("system\ninit: x\nx = nab{nab{x}, q}\n")
    out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert format_system(out) == (
        "system\n"
        "init: x\n"
        "x = nab{_y0, _y2}\n"
        "_y0 = nab{x}\n"
        "_y1 = and{nab{_y1}, nab{}}\n"
        "_y2 = and{or{nab{_y1}, q}, or{nab{}, q}}\n"
    )
    assert report.fresh == (
        ("_y0", "hoisted cover argument nab{x}"),
        ("_y1", "bottom variable (deadlock anchor)"),
        ("_y2", "closed payload q"),
    )


def test_dual_covers_merge_into_a_disjunction_variable():
    eqf = parse_system(
        "system\ninit: x\nx = or{nab{x}, nab{y}}\ny = nab{y}\n")
    out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert format_system(out) == (
        "system\ninit: x\nx = nab{_y0}\ny = nab{y}\n_y0 = nab{_y0}\n"
    )
    assert report.fresh == (("_y0", "disjunction of x, y"),)


def test_cover_against_empty_cover_is_vacuously_true():
    eqf = parse_system("system\ninit: x\nx = or{nab{}, nab{x}}\n")
    out, _ = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert format_system(out) == "system\ninit: x\nx = tt\n"


def test_already_conjunctive_systems_pass_through():
    eqf = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
    out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert format_system(out) == format_system(eqf)
    assert report.fresh == ()


def test_negative_random_count_is_refused():
    # it once checked the exhaustive frames alone and reported success
    eqf = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
    with pytest.raises(ValueError, match="random_count must be non-negative, got -5"):
        to_conjunctive(eqf, exhaustive_max=2, random_count=-5)
    assert to_conjunctive(eqf, exhaustive_max=1, random_count=0)[1].frames_checked == 4


def test_exhaustive_max_below_one_is_refused_before_the_rewrite(monkeypatch):
    # it once ran the whole rewrite and then failed on an internal argument
    def rewrite(self):
        raise AssertionError("the rewrite ran")

    monkeypatch.setattr(normalform._Conjunctivizer, "run", rewrite)
    eqf = parse_system("system\ninit: x\nx = or{p, nab{x}}\n")
    for bad in (0, -2):
        with pytest.raises(ValueError, match=f"^exhaustive_max must be at least 1, got {bad}$"):
            to_conjunctive(eqf, exhaustive_max=bad, random_count=10)


REWRITE_PROBE = """
import sys
from conftest import random_system
from nablamu import format_system, parse_formula, to_conjunctive
for i in range(int(sys.argv[1])):
    parse_formula(f"and{{p{i}, nab{{q{i}, r}}, or{{s{i}, t}}}}")
for seed in (15, 19, 24, 29, 33, 52, 74, 76, 93, 109):
    out, report = to_conjunctive(random_system(seed), exhaustive_max=1, random_count=0)
    print(format_system(out), report.fresh)
"""


def test_rewrite_names_do_not_depend_on_earlier_allocations():
    # systems whose fresh names once moved with the memory layout, after
    # none and after many unrelated formulas were made
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    procs = [subprocess.Popen([sys.executable, "-c", REWRITE_PROBE, str(junk)],
                              stdout=subprocess.PIPE, text=True, env=env) for junk in (0, 5000)]
    outs = [proc.communicate()[0] for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0]
    assert outs[0] == outs[1]
    assert outs[0].count("init: x0") == 10


def test_oversized_cover_distribution_is_refused():
    lines = ["system", "init: x", "x = or{nab{a, b, c, d}, nab{e, f, g, h}}"]
    lines += [f"{v} = nab{{}}" for v in "abcdefgh"]
    eqf = parse_system("\n".join(lines) + "\n")
    with pytest.raises(TranslationFailure) as err:
        to_conjunctive(eqf, exhaustive_max=1, random_count=1)
    assert "cover distribution too large" in str(err.value)


def test_each_clause_is_fixed_once_per_rewrite(monkeypatch):
    calls = Counter()
    fix = normalform._Conjunctivizer._fix_clause

    def counted(self, clause):
        calls[clause] += 1
        return fix(self, clause)

    monkeypatch.setattr(normalform._Conjunctivizer, "_fix_clause", counted)
    for seed in (12, 38):
        calls.clear()
        normalform._Conjunctivizer(random_system(seed)).run()
        assert calls and max(calls.values()) == 1, seed


# SHA-256 of the rewrite's text and fresh-name roles on random_system
# seeds 0-119 without 95 (refused) and 106 (minutes to rewrite), as the
# rewrite gave them before it fixed each clause once.
REWRITE_PIN = "88a1357c442d7364593f270f17d16d6a5d5419837271ccdb35f947c4aa954d9e"


def test_rewrite_of_random_systems_is_pinned():
    digest = hashlib.sha256()
    for seed in range(120):
        if seed in (95, 106):
            continue
        out, report = to_conjunctive(random_system(seed), exhaustive_max=1, random_count=0)
        digest.update(f"{format_system(out)}{report.fresh!r}\n".encode())
    assert digest.hexdigest() == REWRITE_PIN


def test_report_payload():
    eqf = parse_system("system\ninit: x\nx = nab{nab{x}, q}\n")
    out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert isinstance(report, TranslationReport)
    assert report.input is eqf and report.output is out
    assert report.frames_checked == len(report.closure_ordinals)
    assert report.frames_checked > 20
    labels = [label for label, _, _ in report.closure_ordinals]
    assert sum(1 for ell in labels if ell.startswith("R#")) == 20
    j = report.to_json()
    assert set(j) == {"input", "output", "fresh", "frames_checked",
                      "mismatches", "closure_ordinals"}
    assert j["fresh"]["_y1"] == "bottom variable (deadlock anchor)"
    assert j["mismatches"] == []


def test_sugar_is_desugared_before_rewriting():
    eqf = parse_system("system\ninit: x\nx = box x\n")
    out, _ = to_conjunctive(eqf, exhaustive_max=2, random_count=20)
    assert is_conjunctive(out.system)
    assert "box" not in format_system(out)


def test_desugar_is_exported_and_idempotent():
    phi = parse_formula("and{box p, dia q}", keep_sugar=True)
    lowered = desugar(phi)
    assert format_formula(lowered) == "and{and{nab{q}, nab{}}, nab{ff, p}}"
    assert desugar(lowered) == lowered


def test_corpus_translates_conjunctively():
    for name, eqf in full_corpus():
        out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=40)
        assert is_conjunctive(out.system), name
        assert report.mismatches == (), name
        # same stabilised initial set on every oracle frame was already
        # enforced; the report must cover the whole sweep
        assert report.frames_checked == len(report.closure_ordinals)


def test_formula_corpus_round_trips_through_both_stages():
    for name, eqf in corpus_formulas():
        out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=30)
        assert is_conjunctive(out.system), name
        assert report.mismatches == (), name


# ------------------------------------------------------- the batched oracle

def test_oracle_report_matches_the_per_frame_reference():
    corpus = dict(full_corpus())
    for name, eqf in corpus.items():
        out, report = to_conjunctive(eqf, exhaustive_max=2, random_count=40)
        ordinals, mismatches = ref_oracle(eqf, out, exhaustive_max=2, random_count=40)
        assert (report.closure_ordinals, mismatches) == (ordinals, ()), name
        assert report.frames_checked == len(ordinals), name
    # a closed mu leaf, three variables over two propositions, and a
    # tower over two propositions, on the default sweep
    for name in ("closed_mu_leaf", "threevar_ring", "czarnecki_2"):
        eqf = corpus[name]
        out, report = to_conjunctive(eqf)
        ordinals, mismatches = ref_oracle(eqf, out)
        assert (report.closure_ordinals, mismatches) == (ordinals, ()), name
        assert report.frames_checked == len(ordinals), name


def test_oracle_mismatches_match_the_per_frame_reference(monkeypatch):
    # a conjunctive but non-equivalent rewrite: p alone no longer suffices
    eqf = parse_system("system\ninit: x\nx = or{and{p, q}, p, nab{x}}\n")
    wrong = parse_system("system\ninit: x\nx = or{q, nab{x}}\n")
    monkeypatch.setattr(normalform._Conjunctivizer, "run", lambda self: wrong)
    for sweep in ({"exhaustive_max": 2, "random_count": 40}, {}):
        ordinals, mismatches = ref_oracle(eqf, wrong, **sweep)
        assert mismatches
        with pytest.raises(TranslationFailure) as err:
            to_conjunctive(eqf, **sweep)
        assert str(err.value) == (f"translation disagrees with input on {len(mismatches)} of "
                                  f"{len(ordinals)} oracle frames")
        assert err.value.mismatches == mismatches


def _lane_frame(batch, lane):
    """The frame in one lane of a batch, read off its present states,
    its ``dia`` step and its proposition masks."""
    lanes = batch.lanes
    n = sum(batch.present >> i * lanes + lane & 1 for i in range(batch.n))
    states = [f"s{i}" for i in range(n)]
    edges = [(states[i], states[j]) for i in range(n) for j in range(n)
             if batch.dia(1 << j * lanes + lane) >> i * lanes + lane & 1]
    labels = {p: [states[i] for i in range(n) if m >> i * lanes + lane & 1]
              for p, m in batch.prop_mask.items()}
    return Frame(states, edges, labels)


def test_oracle_lanes_are_the_oracle_frames():
    for name, eqf in full_corpus():
        if name not in ("nab_self", "or_p_nab", "twovar_handoff"):  # 0, 1 and 2 propositions
            continue
        props = tuple(sorted(normalform._prop_names(b for _, b in eqf.system.equations)))
        reference = list(_ref_oracle_frames(eqf, 2, 40))
        exhaustive = list(enumerate_frames(2, props))
        labels, batches = _oracle_batches(eqf, 2, 40)
        assert labels == [label for label, _ in reference]
        assert len(labels) == len(exhaustive) + 40
        # the exhaustive labels are the kept ones, not formatted again
        names = normalform._exhaustive_batches(2, props)[0]
        assert all(a is b for a, b in zip(labels, names)) and len(names) == len(exhaustive)
        seen = []
        for batch, wheres in batches:
            assert sum(map(len, wheres)) == batch.lanes
            for lane, k in enumerate(k for where in wheres for k in where):
                label, fr = reference[k]
                if label.startswith("E"):
                    assert fr == exhaustive[k]
                    assert label == f"E{len(fr.states)}#{k}"
                else:
                    assert label == f"R#{k - len(exhaustive)}"
                assert _lane_frame(batch, lane) == fr, (name, label)
                seen.append(k)
        assert sorted(seen) == list(range(len(labels)))


def test_oracle_runs_one_batch_per_frame_source(monkeypatch):
    # the exhaustive frames are one batch and the random frames another,
    # each run once for the input and once for the output
    runs = []
    lane_closure_ordinals = normalform.lane_closure_ordinals

    def counted(eqf, batch):
        runs.append(batch.lanes)
        return lane_closure_ordinals(eqf, batch)

    monkeypatch.setattr(normalform, "lane_closure_ordinals", counted)
    eqf = dict(full_corpus())["twovar_handoff"]
    for sweep, count in (({}, 4), ({"random_count": 0}, 2), ({"exhaustive_max": 1, "random_count": 3}, 4)):
        runs.clear()
        _, report = to_conjunctive(eqf, **sweep)
        assert len(runs) == count, sweep
        assert sum(runs) == 2 * report.frames_checked, sweep


def test_oracle_seeds_one_generator_per_size(monkeypatch):
    seeded = []
    seed = Random.seed

    def counted(self, *args, **kwargs):
        seeded.append(args)
        return seed(self, *args, **kwargs)

    monkeypatch.setattr(Random, "seed", counted)
    eqf = dict(full_corpus())["twovar_handoff"]
    _, report = to_conjunctive(eqf, exhaustive_max=1, random_count=500)
    assert sum(label.startswith("R#") for label, _, _ in report.closure_ordinals) == 500
    assert 1 <= len(seeded) <= 8


def test_oracle_draws_its_random_frames_as_lane_words(monkeypatch):
    # edge probability k / 2 ** b by (n - 1) % 4, labels at 1 / 2
    odds = ((5, 5), (5, 4), (1, 1), (11, 4))
    calls = []
    getrandbits = Random.getrandbits

    def counted(self, k):
        calls.append(k)
        return getrandbits(self, k)

    built = []

    def recorded(props, groups):
        built.append((props, groups))
        return FrameBatch(props, groups)

    monkeypatch.setattr(Random, "getrandbits", counted)
    monkeypatch.setattr(normalform, "FrameBatch", recorded)
    ones = Counter()
    drawn = Counter()
    for name, eqf in full_corpus():
        props = tuple(sorted(normalform._prop_names(b for _, b in eqf.system.equations)))
        nprops = len(props)
        normalform._exhaustive_batches(1, props)  # kept, so the call below builds none
        calls.clear()
        built.clear()
        _, batches = _oracle_batches(eqf, 1, 500)
        # one call per word and bit of k for each edge, one per label
        assert len(calls) == sum(odds[(n - 1) % 4][1] * n * n + nprops * n for n in range(1, 9)), name
        lanes = {n: len(range(n - 1, 500, 8)) for n in range(1, 9)}
        assert set(calls) == set(lanes.values()), name
        # one batch whose groups are the n-state frames, in increasing n,
        # as n * n edge words and nprops * n label words, bit f of frame f
        [(given, groups)] = built
        assert given == props, name
        assert [(n, count) for n, count, _, _ in groups] == list(lanes.items()), name
        assert [len(where) for where in batches[-1][1]] == list(lanes.values()), name
        for n, k, edge_words, label_words in groups:
            assert (len(edge_words), len(label_words)) == (n * n, nprops * n), name
            # no lane spills past the group's last lane
            assert all(0 <= w < 1 << k for w in [*edge_words, *label_words]), name
            for kind, words in ((n, edge_words), ("label", label_words)):
                ones[kind] += sum(bin(w).count("1") for w in words)
                drawn[kind] += k * len(words)
    # every density within four standard deviations of its probability
    for kind in [*range(1, 9), "label"]:
        p = 0.5 if kind == "label" else odds[(kind - 1) % 4][0] / 2 ** odds[(kind - 1) % 4][1]
        sigma = (p * (1 - p) / drawn[kind]) ** 0.5
        assert abs(ones[kind] / drawn[kind] - p) <= 4 * sigma, (kind, ones[kind], drawn[kind])


def test_exhaustive_lanes_are_the_enumerated_frames_up_to_three_states():
    frames = list(enumerate_frames(3, ("p",)))
    names, batch = normalform._exhaustive_batches(3, ("p",))
    assert (batch.n, batch.lanes, len(names)) == (3, len(frames), len(frames))
    lanes = [_lane_frame(batch, lane) for lane in range(batch.lanes)]
    assert lanes == frames


def test_kept_exhaustive_batches_keep_no_closed_leaves(monkeypatch):
    # A kept batch must hold only its frames: after any call it equals a
    # batch freshly built from the same words, field by field, so no
    # closed leaf (or any other datum) of a call stays behind.
    def assert_fresh(kept, k=None):
        fresh = normalform._exhaustive_batches.__wrapped__(2, ("p",))
        assert kept[0] and kept[0] == fresh[0], k
        for field in FrameBatch.__slots__:
            assert getattr(kept[1], field) == getattr(fresh[1], field), (k, field)

    # twenty systems with twenty different closed mu leaves over p
    for k in range(1, 21):
        eqf = parse_system("system\ninit: x\nx = or{nab{x}, mu y. or{p, " + "dia " * k + "y}}\n")
        to_conjunctive(eqf, exhaustive_max=2, random_count=10)
        entry = normalform._exhaustive_batches(2, ("p",))
        assert_fresh(entry, k)
    assert normalform._exhaustive_batches(2, ("p",)) is entry
    info = normalform._exhaustive_batches.cache_info()
    assert 4 <= info.maxsize and info.currsize <= info.maxsize
    # a failing translation leaves nothing behind either
    wrong = parse_system("system\ninit: x\nx = or{nab{x}, mu y. or{q, dia y}}\n")
    monkeypatch.setattr(normalform._Conjunctivizer, "run", lambda self: wrong)
    with pytest.raises(TranslationFailure):
        to_conjunctive(eqf, exhaustive_max=2, random_count=10)
    assert_fresh(entry)
