"""Requests into catlogic and the checks on their results.

For each request kind, `call_<kind>` makes only the calls into catlogic
(the timed part), `summary_<kind>` reads what the checks need off the
results, and `check_<kind>` compares that with the benchmark's own oracles
and returns a failure reason, or None. Calls go through module attributes
(`dsl.parse_file`, ...) so the span recorder's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json

from catlogic import adjunction, boolalg, cli, dsl, kernel, models, stone, syncat

import oracles

# ---------------------------------------------------------------------------
# duality


def call_duality(item, path):
    theory = dsl.parse_file(item.text)[0]
    kernel.check_well_formed(theory)
    lin = boolalg.lindenbaum_algebra(theory)
    space = stone.stone_space(lin.algebra)
    iso = stone.double_dual_iso(lin.algebra)
    laws = syncat.check_category_laws(syncat.syn_prop(theory), sample=item.args["samples"], seed=item.args["law_seed"])
    return lin, space, iso, laws


def summary_duality(item, out):
    lin, space, iso, laws = out
    return {
        "atoms": lin.algebra.atom_count,
        "points": space.point_count,
        "iso": (iso.is_isomorphism, iso.source.atom_count, iso.target.atom_count),
        "laws": (laws.passed, laws.identity_checked, laws.associativity_checked),
    }


def check_duality(item, s):
    a = item.expect["atoms"]
    n = item.args["samples"]
    if s["atoms"] != a:
        return f"Lindenbaum algebra has {s['atoms']} atoms, truth table says {a}"
    if s["points"] != a or s["iso"] != (True, a, a):
        return f"Stone space / double dual wrong: {s['points']} points, iso {s['iso']}"
    # random pairs in a large poset are rarely comparable, so within its
    # attempt budget the check may run fewer than `n` samples, even none
    passed, identities, triples = s["laws"]
    if not passed or not (0 <= identities <= n and 0 <= triples <= n):
        return f"poset category laws: {s['laws']}"
    return None


# ---------------------------------------------------------------------------
# adjoint


def call_adjoint(item, path):
    theory = dsl.parse_file(item.text)[0]
    B = boolalg.FiniteBooleanAlgebra(item.args["b_atoms"])
    return adjunction.check_adjunction(B, theory, seed=item.args["check_seed"])


def summary_adjoint(item, rep):
    return {
        "counts": (rep.left_count, rep.right_count, rep.expected_count),
        "pairs": len(rep.pairing),
        "passed": rep.passed,
        "naturality": (rep.naturality_checked, rep.naturality_total),
    }


def check_adjoint(item, s):
    want = item.expect["left"]
    if s["counts"] != (want, want, want):
        return f"left/right/expected {s['counts']}, |B|^atoms = {want}"
    if not s["passed"] or s["pairs"] != want:
        return f"bijection not verified ({s['pairs']} pairs)"
    checked, total = s["naturality"]
    if not (0 < checked <= total or checked == total == 0):
        return f"naturality checked {checked} of {total}"
    return None


# ---------------------------------------------------------------------------
# equational


def call_search(item, path):
    return models.enumerate_models(dsl.parse_file(item.text)[0], item.args["size"])


def call_raw(item, path):
    return models.enumerate_models(dsl.parse_file(item.text)[0], item.args["size"], prune=False)


def summary_search(item, found):
    return {"count": len(found)}


def summary_raw(item, found):
    theory = found[0].theory if found else None
    return {"count": len(found), "tables": [m.tables for m in found], "theory": theory}


def check_search(item, s):
    if s["count"] != item.expect["count"]:
        return f"{s['count']} models, known labelled count {item.expect['count']}"
    return None


def check_raw(item, s):
    reason = check_search(item, s)
    if reason:
        return reason
    pruned = models.enumerate_models(s["theory"], item.args["size"])
    if [m.tables for m in pruned] != s["tables"]:
        return "raw scan and pruned search disagree"
    return None


def call_nat(item, path):
    theory = dsl.parse_file(item.text)[0]
    p, q = item.args["sizes"]
    i, j = item.args["pick"]
    m = models.enumerate_models(theory, p)[i]
    n = models.enumerate_models(theory, q)[j]
    return m, n, models.homs_equal_nat_trans(m, n, item.args["depth"])


def summary_nat(item, out):
    m, n, rep = out
    return {
        "arities": [f.arity for f in m.theory.functions],
        "tables": (m.tables, n.tables),
        "sizes": (m.sizes[0], n.sizes[0]),
        "report": (rep.bijective, rep.hom_count, rep.natural_count),
    }


def check_nat(item, s):
    homs = oracles.count_homs(s["arities"], *s["tables"], *s["sizes"])
    if s["report"] != (True, homs, homs):
        return f"hom/nat-trans report {s['report']}, brute-force hom count {homs}"
    return None


def call_laws(item, path):
    cat = syncat.syn_eq(dsl.parse_file(item.text)[0], item.args["depth"])
    return syncat.check_category_laws(cat, sample=item.args["samples"], seed=item.args["law_seed"])


def summary_laws(item, rep):
    return {"laws": (rep.passed, rep.identity_checked, rep.associativity_checked)}


def check_laws(item, s):
    n = item.args["samples"]
    if s["laws"] != (True, n, n):
        return f"context category laws: {s['laws']}"
    return None


def call_normalize(item, path):
    group, terms = dsl.parse_file(item.text)
    return group, [syncat.normalize(group, ax.lhs) for ax in terms.axioms]


def summary_normalize(item, out):
    group, forms = out
    return {"group": group, "forms": forms}


def check_normalize(item, s):
    ops = item.expect["ops"]
    for term, nf in zip(item.expect["terms"], s["forms"]):
        variables = sorted({v for v in _generator_vars(term)})
        gens = {v: i for i, v in enumerate(variables)}
        want = oracles.reduce_free(oracles.generator_word(term, ops, gens))
        got = tuple(oracles.result_word(nf, ops, gens))
        if got != want:
            return f"normal form word {got}, stack reduction gives {want}"
        if syncat.normalize(s["group"], nf) != nf:
            return "normalize is not idempotent"
    if len(s["forms"]) != len(item.expect["terms"]):
        return f"{len(s['forms'])} normal forms for {len(item.expect['terms'])} terms"
    return None


def _generator_vars(term):
    if term[0] == "var":
        yield term[1]
    elif len(term) > 2:
        for a in term[2]:
            yield from _generator_vars(a)


# ---------------------------------------------------------------------------
# brain: the CLI in-process, stdout captured


def call_cli(item, path):
    argv = item.args["argv"] + [path] + item.args.get("tail", [])
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), argv


def summary_cli(item, out):
    code, stdout, argv = out
    return {"code": code, "stdout": stdout, "argv": argv}


def _report(s):
    return json.loads(s["stdout"])


def check_brain_check(item, s):
    net = item.expect["net"]
    if s["code"] != 0:
        return f"brain check exited {s['code']}"
    report = _report(s)
    if not report["pass"] or set(report["verdicts"].values()) != {"pass"}:
        return f"verdicts {report['verdicts']}"
    audits = report["result"]["audits"]
    if len(audits) != len(net.atoms) ** 2:
        return f"{len(audits)} audits for {len(net.atoms)} neurons"
    for audit in audits:
        # homs logic(a) -> Syn(lang(logic(b))): |atoms a| ** |atoms b|
        want = net.atoms[audit["algebra_neuron"]] ** net.atoms[audit["theory_neuron"]]
        if (audit["left"], audit["right"], audit["passed"]) != (want, want, True):
            return f"audit {audit['id']}: {audit['left']}/{audit['right']}, expected {want}"
    return None


def check_brain_run(item, s):
    if s["code"] != 0:
        return f"brain run exited {s['code']}"
    e = item.expect
    want = oracles.simulate(e["net"].atoms, e["net"].axons, e["init"], e["steps"])
    got = [(step["states"], step["via"]) for step in _report(s)["result"]["trace"]]
    if got != want:
        return "propagation trace differs from the push-map simulation"
    return None


def check_brain_export(item, s):
    net = item.expect["net"]
    if s["code"] != 0:
        return f"brain export exited {s['code']}"
    lines = s["stdout"].splitlines()
    nodes = [l for l in lines if "[label=" in l and "->" not in l]
    edges = [l for l in lines if "->" in l]
    if len(edges) != len(net.axons) + len(net.atoms):
        return f"{len(edges)} mind edges for {len(net.axons)} axons and {len(net.atoms)} identities"
    for n, a in net.atoms.items():
        # lang gives one letter per element of the 2^atoms-element algebra
        if f'[label="{n} (letters={2 ** a})"];' not in "".join(nodes):
            return f"mind node {n} lacks letters={2 ** a}"
    return None


def check_brain_bad(item, s):
    if s["code"] != 1:
        return f"false composite exited {s['code']}, not 1"
    ids = [c["id"] for c in _report(s)["counterexamples"]]
    if f"composite:{item.expect['net'].composite}" not in ids:
        return "false composite not reported"
    return None


def check_brain_replay(item, s):
    report = _report(s)
    if s["code"] != 1 or report.get("reproduced") is not True:
        return f"replay exited {s['code']}, reproduced={report.get('reproduced')}"
    return None


KINDS = {
    "duality": (call_duality, summary_duality, check_duality),
    "adjoint": (call_adjoint, summary_adjoint, check_adjoint),
    "search": (call_search, summary_search, check_search),
    "raw": (call_raw, summary_raw, check_raw),
    "nat": (call_nat, summary_nat, check_nat),
    "laws": (call_laws, summary_laws, check_laws),
    "normalize": (call_normalize, summary_normalize, check_normalize),
    "brain-check": (call_cli, summary_cli, check_brain_check),
    "brain-run": (call_cli, summary_cli, check_brain_run),
    "brain-export": (call_cli, summary_cli, check_brain_export),
    "brain-check-bad": (call_cli, summary_cli, check_brain_bad),
    "brain-replay": (call_cli, summary_cli, check_brain_replay),
}

# CLI requests run a second time when checked; their stdout must repeat
# byte for byte
REPEATED = {"brain-run", "brain-export", "brain-check-bad"}


def repeat_cli(summary) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        cli.main(list(summary["argv"]))
    return out.getvalue()
