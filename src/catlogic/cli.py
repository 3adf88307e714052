"""Command-line interface.

Every invocation writes one machine-readable JSON report to stdout (byte
identical across runs on identical inputs and seed) and a short human
summary to stderr. Exit codes: 0 all verdicts pass, 1 a verified failure,
2 input or syntax error.

Commands: check, stone, models, syn, adjoint, brain check|run|export.
Counterexample records carry an `id`; re-running the same command with
`--replay <id>` re-executes the campaign and reports whether that
counterexample reproduces.

Commands raise on bad input, and `main` alone maps it to exit 2: a
`TheorySyntaxError` is reported as `syntax: ...`, any other `CatlogicError`
or `OSError` by its message (an `OSError`'s file name clipped), each as one
`error` line. A command catches an
error only where it is a verdict: an invalid theory in `check`, a capacity
overrun in `models`, `adjoint` and `brain check`, a failed double dual in
`stone`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys

from . import __version__, adjunction, boolalg, brain, models, stone, syncat
from .dsl import parse_file
from .errors import (
    CapacityExceededError,
    CatlogicError,
    FragmentViolationError,
    InvalidStateError,
    InvalidTheoryError,
    SourceSpan,
    TheorySyntaxError,
    clip,
)
from .kernel import Fragment

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


class ArgumentError(CatlogicError):
    """A command-line argument that names nothing in the input or is out of range."""


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _emit(report: dict, human: list[str]) -> None:
    sys.stdout.write(json.dumps(report, sort_keys=True, indent=2) + "\n")
    for line in human:
        sys.stderr.write(line + "\n")


def _base_report(args_echo: list[str], digest: str | None) -> dict:
    return {
        "command": args_echo,
        "version": __version__,
        "input_sha256": digest,
        "result": {},
        "verdicts": {},
        "counterexamples": [],
        "pass": True,
    }


def _conclude(report: dict, echo, human: list[str], replay: str | None = None) -> int:
    """Emit the report, or only the replay of one of its counterexamples."""
    if replay:
        return _replay(report, echo, replay)
    report["pass"] = all(v == "pass" for v in report["verdicts"].values())
    _emit(report, human)
    return EXIT_PASS if report["pass"] else EXIT_FAIL


def _replay(report: dict, echo, replay_id: str) -> int:
    match = next((c for c in report["counterexamples"] if c["id"] == replay_id), None)
    replay_report = {
        "command": echo,
        "version": __version__,
        "replay": replay_id,
        "reproduced": match is not None,
        "counterexample": match,
    }
    _emit(
        replay_report,
        [f"replay {clip(replay_id)}: {'reproduced' if match else 'not reproduced'}"],
    )
    return EXIT_FAIL if match else EXIT_PASS


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decode(data: bytes) -> str:
    """The input as UTF-8 text; a bad byte is a syntax error at its place."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        head = data[: exc.start].decode("utf-8")
        line = head.count("\n") + 1
        column = len(head) - head.rfind("\n")
        span = SourceSpan(line, column, len(head), len(head) + 1)
        raise TheorySyntaxError(f"input is not UTF-8 (byte 0x{data[exc.start]:02x})", span) from None


def _theory(args, prop: bool = False):
    """The theory named by args.theory in args.path, and the file's digest."""
    data = _read(args.path)
    theory = next((t for t in parse_file(_decode(data)) if t.name == args.theory), None)
    if theory is None:
        raise ArgumentError(repr(clip(args.theory)))
    if prop and theory.fragment is not Fragment.PROP:
        raise FragmentViolationError(f"theory {clip(args.theory)} is not propositional")
    return theory, _digest(data)


def _require_nonnegative(**counts: int) -> None:
    for name, value in counts.items():
        if value < 0:
            raise ArgumentError(f"{name} {value} is negative")


def _brain(args, strict: bool):
    """The brain in args.path, and the file's digest."""
    data = _read(args.path)
    return brain.load_brain(_decode(data), strict=strict), _digest(data)


# ---------------------------------------------------------------------------
# Commands


def cmd_check(args, echo) -> int:
    data = _read(args.path)
    report = _base_report(echo, _digest(data))
    try:
        theories = parse_file(_decode(data))
    except InvalidTheoryError as exc:
        report["verdicts"]["well-formed"] = "fail"
        report["counterexamples"] = [
            {
                "id": f"diagnostic:{i}",
                "code": d.code,
                "message": d.message,
                "where": str(d.span) if d.span else d.path,
            }
            for i, d in enumerate(exc.diagnostics)
        ]
        return _conclude(report, echo, [f"fail: {d}" for d in exc.diagnostics])

    report["result"]["theories"] = [
        {
            "name": t.name,
            "fragment": t.fragment.value,
            "sorts": len(t.sorts),
            "ops": len(t.functions),
            "letters": len(t.relations),
            "axioms": len(t.axioms),
        }
        for t in theories
    ]
    report["verdicts"]["well-formed"] = "pass"
    return _conclude(report, echo, [f"ok: {len(theories)} theories validate"])


def cmd_stone(args, echo) -> int:
    theory, digest = _theory(args, prop=True)
    alg = boolalg.lindenbaum_algebra(theory).algebra
    report = _base_report(echo, digest)
    try:
        stone.double_dual_iso(alg)
        verdict = "pass"
        detail = {"bijective": True, "preserves_operations": True}
    except AssertionError as exc:  # a defect, not an input
        verdict = "fail"
        detail = {"error": str(exc)}
        report["counterexamples"].append({"id": "double-dual", "message": str(exc)})
    letters = theory.letters
    report["result"] = {
        "theory": theory.name,
        "letters": list(letters),
        "atoms": alg.atom_count,
        "elements": alg.element_count,
        "points": [dict(zip(letters, boolalg.letter_values(m, len(letters)))) for m in alg.atom_labels],
        "double_dual": detail,
    }
    report["verdicts"]["double-dual"] = verdict
    human = [
        f"{theory.name}: {alg.atom_count} Stone points, {alg.element_count} elements, "
        f"double dual {verdict}"
    ]
    return _conclude(report, echo, human, args.replay)


def cmd_models(args, echo) -> int:
    theory, digest = _theory(args)
    _require_nonnegative(size=args.size)

    report = _base_report(echo, digest)
    try:
        found = models.enumerate_models(theory, args.size, prune=not args.no_prune)
    except CapacityExceededError as exc:
        report["verdicts"]["capacity"] = "fail"
        report["counterexamples"].append({"id": "capacity", "message": str(exc)})
        return _conclude(report, echo, [f"capacity exceeded: {exc}"])
    report["result"] = {
        "theory": theory.name,
        "size": args.size,
        "count": len(found),
        "models": [m.describe() for m in found],
    }
    report["verdicts"]["enumeration"] = "pass"
    return _conclude(report, echo, [f"{theory.name}: {len(found)} models of size {args.size}"])


def cmd_syn(args, echo) -> int:
    theory, digest = _theory(args)
    _require_nonnegative(depth=args.depth, samples=args.samples)
    report = _base_report(echo, digest)
    if theory.fragment is Fragment.PROP:
        cat = syncat.syn_prop(theory)
        report["result"] = {
            "theory": theory.name,
            "kind": cat.kind,
            "objects": len(cat.objects),
            "morphisms": cat.morphism_count(),
        }
    else:
        cat = syncat.syn_eq(theory, args.depth)
        homs = [
            {"source": str(a), "target": str(b), "count": len(cat.hom(a, b))}
            for a in cat.objects
            for b in cat.objects
        ]
        report["result"] = {
            "theory": theory.name,
            "kind": cat.kind,
            "depth": args.depth,
            "objects": [str(o) for o in cat.objects],
            "hom_counts": homs,
        }
    laws = syncat.check_category_laws(cat, sample=args.samples, seed=args.seed)
    report["result"]["laws"] = {
        "identity_checked": laws.identity_checked,
        "associativity_checked": laws.associativity_checked,
    }
    verdict = "pass" if laws.passed else "fail"
    report["verdicts"]["category-laws"] = verdict
    for i, cx in enumerate(laws.counterexamples):
        report["counterexamples"].append({"id": f"law:{i}", "detail": repr(cx)})
    return _conclude(report, echo, [f"{theory.name}: syntactic category checks {verdict}"], args.replay)


def cmd_adjoint(args, echo) -> int:
    theory, digest = _theory(args, prop=True)
    _require_nonnegative(atoms=args.atoms)

    report = _base_report(echo, digest)
    report["seed"] = args.seed
    rng = random.Random(args.seed)
    algebras = [("free", boolalg.free_boolean_algebra([f"g{i}" for i in range(args.atoms)]).algebra)]
    for i in range(10):
        algebras.append((f"random{i}", boolalg.FiniteBooleanAlgebra(rng.randint(0, 3))))

    checks = []
    all_pass = True
    for idx, (label, B) in enumerate(algebras):
        try:
            rep = adjunction.check_adjunction(B, theory, seed=args.seed)
        except CapacityExceededError as exc:
            report["verdicts"]["capacity"] = "fail"
            report["counterexamples"].append({"id": f"c{idx}/capacity", "message": str(exc)})
            return _conclude(report, echo, [f"{label}: capacity exceeded: {exc}"])
        checks.append(
            {
                "algebra": label,
                "atoms": B.atom_count,
                "left": rep.left_count,
                "right": rep.right_count,
                "expected": rep.expected_count,
                "passed": rep.passed,
                "naturality_checked": rep.naturality_checked,
            }
        )
        for cx in rep.counterexamples:
            entry = dict(cx)
            entry["id"] = f"c{idx}/{cx['id']}"
            report["counterexamples"].append(entry)
        all_pass = all_pass and rep.passed

    report["result"] = {"theory": theory.name, "checks": checks}
    verdict = "pass" if all_pass else "fail"
    report["verdicts"]["adjunction"] = verdict
    return _conclude(report, echo, [f"{theory.name}: {len(checks)} adjunction checks, {verdict}"], args.replay)


def cmd_brain_check(args, echo) -> int:
    # composite mismatches are verdicts here; every other load error is bad input
    graph, digest = _brain(args, strict=False)
    report = _base_report(echo, digest)
    report["seed"] = args.seed
    report["verdicts"]["structure"] = "pass"

    findings = graph.findings
    report["verdicts"]["composites"] = "pass" if not findings else "fail"
    report["counterexamples"].extend(findings)

    try:
        audits = brain.audit_adjunction(graph, seed=args.seed)
    except CapacityExceededError as exc:
        report["verdicts"]["capacity"] = "fail"
        report["counterexamples"].append({"id": "capacity", "message": str(exc)})
        return _conclude(report, echo, [f"{graph.name}: capacity exceeded: {exc}"])
    audit_summaries = []
    for audit in audits:
        rep = audit["report"]
        audit_summaries.append(
            {
                "id": audit["id"],
                "algebra_neuron": audit["algebra_neuron"],
                "theory_neuron": audit["theory_neuron"],
                "left": rep.left_count,
                "right": rep.right_count,
                "passed": rep.passed,
            }
        )
        for cx in rep.counterexamples:
            entry = dict(cx)
            entry["id"] = f"{audit['id']}/{cx['id']}"
            report["counterexamples"].append(entry)
    verdict = "pass" if all(a["passed"] for a in audit_summaries) else "fail"
    report["verdicts"]["adjunction-audit"] = verdict
    report["result"] = {
        "brain": graph.name,
        "neurons": len(graph.neurons),
        "axons": len(graph.axons),
        "audits": audit_summaries,
    }
    return _conclude(report, echo, [f"{graph.name}: audits {verdict}"], args.replay)


def cmd_brain_run(args, echo) -> int:
    graph, digest = _brain(args, strict=True)
    trace = brain.propagate(graph, _parse_init(graph, args.init), args.steps)
    report = _base_report(echo, digest)
    report["result"] = {
        "brain": graph.name,
        "steps": args.steps,
        "initial": _encode_states(trace.initial),
        "trace": [
            {
                "states": _encode_states(states),
                "via": decisions,
            }
            for states, decisions in zip(trace.steps, trace.decisions)
        ],
    }
    report["verdicts"]["run"] = "pass"
    return _conclude(report, echo, [f"{graph.name}: ran {args.steps} steps"])


def cmd_brain_export(args, echo) -> int:
    graph, _ = _brain(args, strict=True)
    target = brain.mind_of_brain(graph) if args.mind else graph
    sys.stdout.write(brain.export_dot(target))
    sys.stderr.write(f"{graph.name}: DOT export ({'mind' if args.mind else 'brain'})\n")
    return EXIT_PASS


def _encode_states(states: dict) -> dict:
    return {nid: ("silent" if p is None else p) for nid, p in states.items()}


def _parse_init(graph, spec: str | None):
    if not spec:
        return []
    out = []
    for part in spec.split(","):
        name, _, value = part.strip().partition("=")
        # an atom is ASCII digits only, as in a brain file: int() alone would
        # also read '٣', '1_0', '+1' and ' 1'
        if not name or not (value == "silent" or (value.isascii() and value.isdigit())):
            raise InvalidStateError(f"bad state {clip(part)!r}; expected neuron=atom or neuron=silent")
        graph.neuron(name)
        # refused by length before int(), as a brain file's numbers are
        point = None if value == "silent" else brain.bounded_atom(value, f"{clip(name)}: atom")
        out.append(brain.NeuronState(name, point))
    return out


def _int(text: str) -> int:
    """argparse's int type, quoting a bad value clipped."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {clip(text)!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catlogic",
        description="categorical logic workbench: theories, Stone duality, realizations, adjunction checks, neuron networks",
    )
    parser.add_argument("--version", action="version", version=f"catlogic {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate every theory in a file")
    p.set_defaults(run=cmd_check)
    p.add_argument("path")

    p = sub.add_parser("stone", help="Lindenbaum algebra, Stone points and double dual")
    p.set_defaults(run=cmd_stone)
    p.add_argument("path")
    p.add_argument("theory")
    p.add_argument("--replay", metavar="ID")

    p = sub.add_parser("models", help="enumerate models on a labelled carrier")
    p.set_defaults(run=cmd_models)
    p.add_argument("path")
    p.add_argument("theory")
    p.add_argument("size", type=_int)
    p.add_argument("--no-prune", action="store_true", help="use the raw-scan oracle path")

    p = sub.add_parser("syn", help="syntactic category summary")
    p.set_defaults(run=cmd_syn)
    p.add_argument("path")
    p.add_argument("theory")
    p.add_argument("--depth", type=_int, default=3, help="term truncation depth")
    p.add_argument("--samples", type=_int, default=100, help="law-check sample count")
    p.add_argument("--seed", type=_int, default=adjunction.DEFAULT_SEED)
    p.add_argument("--replay", metavar="ID")

    p = sub.add_parser("adjoint", help="hom-set bijection checks against seeded algebras")
    p.set_defaults(run=cmd_adjoint)
    p.add_argument("path")
    p.add_argument("theory")
    p.add_argument("--atoms", type=_int, default=1, help="letters of the free test algebra")
    p.add_argument("--seed", type=_int, default=adjunction.DEFAULT_SEED)
    p.add_argument("--replay", metavar="ID", help="re-run and report one counterexample")

    p = sub.add_parser("brain", help="neuron-network commands")
    bsub = p.add_subparsers(dest="brain_command", required=True)
    b = bsub.add_parser("check", help="validate a brain and audit the hom-set bijections")
    b.set_defaults(run=cmd_brain_check)
    b.add_argument("path")
    b.add_argument("--seed", type=_int, default=adjunction.DEFAULT_SEED)
    b.add_argument("--replay", metavar="ID")
    b = bsub.add_parser("run", help="propagate states along Stone duals")
    b.set_defaults(run=cmd_brain_run)
    b.add_argument("path")
    b.add_argument("--steps", type=_int, default=1)
    b.add_argument("--init", help="comma list like n1=0,n2=silent")
    b = bsub.add_parser("export", help="emit DOT")
    b.set_defaults(run=cmd_brain_export)
    b.add_argument("path")
    b.add_argument("--mind", action="store_true", help="export the mind image instead")

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        return args.run(args, argv)
    except TheorySyntaxError as exc:
        message = f"syntax: {exc}"
    except CatlogicError as exc:
        message = str(exc)
    except OSError as exc:
        message = str(exc)
        if isinstance(exc.filename, str):
            message = f"[Errno {exc.errno}] {exc.strerror}: {clip(exc.filename)!r}"
    _emit(
        {"command": argv, "version": __version__, "error": message},
        [f"error: {message}"],
    )
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
