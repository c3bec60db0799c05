import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qpel.cli import main
from qpel.parser import MAX_NESTING

CLI = [sys.executable, "-m", "qpel.cli"]


def run(*args, cwd=None):
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, cwd=cwd or pathlib.Path.cwd()
    )


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def test_check_corpus_verified_stochastic():
    out = run("check", "--verify", "stochastic", "corpus/core.qpel")
    assert out.returncode == 0, out.stdout + out.stderr


def test_check_all_backends_with_skips():
    out = run("check", "--verify", "all", "corpus/qubit.qpel")
    assert out.returncode == 0
    assert "set=skipped" in out.stdout  # explicit skip, not silent success


def test_linearity_violation_exits_3(tmp_path):
    p = write(tmp_path, "bad.qpel", "term dup (x : I) : I * I = x * x\n")
    out = run("check", p)
    assert out.returncode == 3
    assert "no cloning" in out.stdout


def test_wrong_rule_name_exits_4(tmp_path):
    p = write(
        tmp_path, "bad.qpel",
        "lemma l (x : I) : x = x : I by { sym(sym(sym(measure-1))) }\n",
    )
    out = run("check", p)
    assert out.returncode == 4


def test_parse_error_exits_2(tmp_path):
    p = write(tmp_path, "bad.qpel", "term ( : I = unit\n")
    out = run("check", p)
    assert out.returncode == 2


def test_semantic_mismatch_exits_5(tmp_path):
    # an unsound extra lemma cannot be derived, so fabricate a file whose
    # lemma checks but whose verification is falsified only by a broken
    # claim: use a use-free lemma with auto and a deliberately false goal
    # that is still derivable? none exists (soundness); instead check the
    # plumbing with a crafted report through the driver API
    from qpel.driver import DeclReport, FileReport

    rep = FileReport("x")
    rep.decls.append(DeclReport("l", "lemma", "semantic-mismatch", "lemma-checked"))
    assert rep.exit_code == 5


def test_eval_fair_coin():
    out = run("eval", "--backend", "stochastic", "corpus/intro.qpel", "coin")
    assert out.returncode == 0
    assert out.stdout.strip() == "inl <> : 1/2, inr <> : 1/2"


def test_eval_plus_under_quantum():
    out = run("eval", "--backend", "quantum", "corpus/intro.qpel", "flip")
    assert out.returncode == 0
    assert "[[0.5, 0.5], [0.5, 0.5]]" in out.stdout


def test_eval_prints_a_closed_cluster_state_evaluated_forward(tmp_path, monkeypatch):
    import numpy as np

    from qpel import driver
    from qpel.driver import render_pred

    n = 6
    lines = [f"term c6 () : {' * '.join(['qbit'] * n)} ="]
    lines += [f"  let q{i} = plus in" for i in range(n)]
    cur = [f"q{i}" for i in range(n)]
    for i in range(n - 1):
        lines.append(f"  let e{i}l * e{i}r = E {cur[i]} {cur[i + 1]} in")
        cur[i], cur[i + 1] = f"e{i}l", f"e{i}r"
    lines.append("  " + " * ".join(cur))
    p = write(tmp_path, "c6.qpel", "\n".join(lines) + "\n")
    # |C_6> = prod CZ(i, i+1) |+>^6, qubit 1 the most significant bit
    bits = (np.arange(2**n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    psi = (-1.0) ** (bits[:, :-1] * bits[:, 1:]).sum(axis=1) / 2 ** (n / 2)

    evaluated = []
    evaluate = driver.evaluate
    monkeypatch.setattr(driver, "evaluate",
                        lambda backend, d: evaluated.append(d) or evaluate(backend, d))
    monkeypatch.setattr(driver, "interp_term", None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--backend", "quantum", p, "c6"])
    assert code == 0 and len(evaluated) == 1
    assert out.getvalue() == render_pred((np.outer(psi, psi),)) + "\n"


def test_eval_unit_under_set(tmp_path):
    p = write(tmp_path, "u.qpel", "term u () : I = unit\n")
    out = run("eval", "--backend", "set", p, "u")
    assert out.stdout.strip() == "<>"


def test_eval_open_term_rejected():
    out = run("eval", "--backend", "set", "corpus/intro.qpel", "id1")
    assert out.returncode == 3


@pytest.mark.parametrize("backend,decl", [("set", "coin"), ("stochastic", "flip")])
def test_eval_in_a_backend_that_cannot_interpret_exits_3(backend, decl):
    # coin draws a probability literal, flip makes a qubit
    out = run("eval", "--backend", backend, "corpus/intro.qpel", decl)
    assert out.returncode == 3
    assert out.stderr == f"error: the {backend} backend cannot interpret {decl}\n"


def test_wp_cross_check_substitutes_into_a_case_scrutinee(tmp_path):
    # the substituted scrutinee `inl unit` has no synthesisable type unless
    # it keeps the term's ascription
    p = write(tmp_path, "w.qpel", "term m () : I + I = inl unit\n"
              "effect e (x : I + I) = caseE x of inl a -> bot(0) | inr b -> 0\n")
    out = run("wp", "--cross-check", p, "m", "e")
    assert out.returncode == 0, out.stderr
    assert out.stdout == "block 0: [[1]]\ncross-check max deviation: 0.000e+00\n"


def test_wp_cross_check_zero_deviation():
    out = run("wp", "--cross-check", "corpus/intro.qpel", "zgate", "prjhalf")
    assert out.returncode == 0
    assert "cross-check max deviation" in out.stdout
    dev = float(out.stdout.strip().split()[-1])
    assert dev <= 1e-9


@pytest.mark.parametrize("args,code", [
    (["check", "corpus/intro.qpel"], 0),
    (["eval", "--backend", "quantum", "corpus/intro.qpel", "flip"], 0),
    (["wp", "--cross-check", "corpus/intro.qpel", "zgate", "prjhalf"], 0),
])
def test_a_closed_output_pipe_leaves_the_exit_code(args, code):
    # the read end is closed before the command starts, so every write fails
    read, write = os.pipe()
    os.close(read)
    try:
        out = subprocess.run(CLI + args, stdout=write, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write)
    assert out.returncode == code and out.stderr == "", out.stderr


def test_a_reader_that_stops_early_gets_the_reports_exit_code():
    # six copies of the corpus report well over a pipe's 64 KiB; without the
    # beta-iso pack, beta_iso.qpel fails its proofs (exit 4)
    files = sorted(str(p) for p in pathlib.Path("corpus").glob("*.qpel")) * 6
    with subprocess.Popen(CLI + ["check", "--format", "json"] + files,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'[\n  {\n    '
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
    assert proc.returncode == 4 and "Traceback" not in stderr, stderr


def test_reports_are_deterministic():
    a = run("check", "--verify", "stochastic", "--format", "json", "corpus/probabilistic.qpel")
    b = run("check", "--verify", "stochastic", "--format", "json", "corpus/probabilistic.qpel")
    assert a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc[0]["exit"] == 0


def test_rules_flag_gates_packs():
    out = run("check", "corpus/beta_iso.qpel")
    assert out.returncode == 4
    out2 = run("check", "--rules", "core,qubit,beta-iso", "corpus/beta_iso.qpel")
    assert out2.returncode == 0


def test_auto_depth_flag(tmp_path):
    p = write(
        tmp_path, "deep.qpel",
        "lemma l (x : qbit) : bot(bot(proj(x, 0))) <= proj(x, 0)\n",
    )
    shallow = run("check", "--auto-depth", "1", p)
    assert shallow.returncode == 4, shallow.stdout
    deep = run("check", "--auto-depth", "6", p)
    assert deep.returncode == 0, deep.stdout


MEASURE_BOT = "measure { bot(bot(proj(x, 0))) -> inl unit | bot(proj(x, 0)) -> inr unit }"


def test_a_typing_lemma_proved_by_auto_keeps_its_requires_scripts():
    """The obligation of the measurement is beyond depth 2, so only the
    `requires` script proves it; the typing lemma's proof is the derivation
    its typecheck built with that script."""
    text = (f"term t (x : qbit) : I + I = {MEASURE_BOT}\n  requires {{ auto(3) }}\n"
            f"lemma l (x : qbit) : {MEASURE_BOT} : I + I\n  requires {{ auto(3) }}\n"
            f"lemma m (x : qbit) : {MEASURE_BOT} : I + I\n  requires {{ auto(3) }}\n  by {{ auto }}\n")
    code, out = check_in_process(text, "--auto-depth", "2")
    assert code == 0, out
    assert "[ok  ] lemma l: lemma-checked" in out and "[ok  ] lemma m: lemma-checked" in out
    # without the script the typecheck itself fails
    code, out = check_in_process(f"lemma l (x : qbit) : {MEASURE_BOT} : I + I\n", "--auto-depth", "2")
    assert code == 3 and "[FAIL] lemma l: parsed -- undischarged obligation" in out, out


def test_a_failed_declaration_reports_the_last_stage_it_passed():
    text = ("term t () : qbit = unit\ncheck t\n"
            "effect e (x : I) = proj(x, 1/2)\ncheck e\n"
            "effect f (x : I) = bot(0)\ncheck f\n")
    code, out = check_in_process(text)
    assert code == 3, out
    assert out.splitlines()[1:] == [
        "  [FAIL] term t: parsed -- unit value cannot have type qbit",
        "  [FAIL] check t: parsed -- check names the failed term 't':"
        " unit value cannot have type qbit",
        "  [FAIL] effect e: parsed -- variable x has type I, expected qbit",
        "  [FAIL] check e: parsed -- check expects a term declaration",
        "  [ok  ] effect f: typechecked",
        "  [FAIL] check f: parsed -- check expects a term declaration",
    ]


def test_sidecar_proofs(tmp_path):
    src = write(tmp_path, "side.qpel", "lemma l (x : I) : (measure { bot(0) -> x }) = x : I\n")
    sidecar = {"l": {"rule": "measure-1"}}
    (tmp_path / "side.qpel.proofs.json").write_text(json.dumps(sidecar))
    out = run("check", src)
    assert out.returncode == 0, out.stdout
    # without the sidecar the term equality has no script
    (tmp_path / "side.qpel.proofs.json").unlink()
    out2 = run("check", src)
    assert out2.returncode == 4


# ------------------------------------------------- exit codes on any input

def check_in_process(text, *flags):
    """`qpel check` on `text` in this process: (exit code, printed report)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "input.qpel"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check", *flags, str(path)])
    return code, out.getvalue()


# Inputs that once ended in a traceback with exit 1, and where they go wrong.
DEEP_X = "term t () : qbit = " + "X (" * 400 + "plus" + ")" * 400
DEEP_BOT = "effect e () = " + "bot(" * 400 + "0" + ")" * 400
CRASHES = {
    "proj-zero-denominator": ("effect e (x : qbit) = proj(x, 1/0)", "at 1:31"),
    "measure-zero-denominator": (
        "term t () : I + I = measure { 1/0 -> inl unit | 1/2 -> inr unit }", "at 1:31"),
    "measure-scalar-above-1": (
        "term t () : I + I = measure { 3/2 -> inl unit | 1/2 -> inr unit }", "at 1:31"),
    "effect-scalar-above-1": ("effect e () = 7/3", "at 1:15"),
    "duplicate-binder": ("term t (x : qbit, x : I) : qbit = x", "at 1:19"),
    "proj-angle-2pi": ("effect e (x : qbit) = proj(x, 5/2)", "at 1:31"),
    "integer-over-4300-digits": ("effect e () = 1/" + "1" * 5000, "at 1:17"),
    "superscript-digit": ("effect e () = \u00b2", "at 1:15"),
    "deep-x": (DEEP_X, f"nesting deeper than {MAX_NESTING} at 1:"),
    "deep-bot": (DEEP_BOT, f"nesting deeper than {MAX_NESTING} at 1:"),
}

SOUP = [
    "type", "term", "effect", "lemma", "check", "by", "requires", "let", "in",
    "case", "caseE", "of", "inl", "inr", "measure", "unit", "plus", "qbit", "I",
    "X", "Z", "E", "proj", "bot", "eff", "auto", "arith", "both", "use", "x",
    "y", "t", "ref", "sym", "zero-leq", "leq-trans", "(", ")", "{", "}", "[",
    "]", ":", ";", ",", "|", "*", "+", ".", "=", "->", "<=", "==", "_|_",
    "o+", "0", "1", "2", "1/2", "1/0", "7/3", "\n",
]


@pytest.mark.parametrize("text, where", CRASHES.values(), ids=CRASHES)
def test_constructor_and_nesting_errors_exit_2_with_position(text, where):
    code, out = check_in_process(text)
    assert code == 2 and where in out, out


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(SOUP), max_size=30).map(" ".join))
@example("lemma l (x : I) : x : I by { var }")
@example("term t (x : qbit, x : I) : qbit = x")
@example("effect e (x : qbit) = proj(x, 1/0)")
@example("term t () : I + I = measure { 1/0 -> inl unit | 1/2 -> inr unit }")
@example("term t () : I + I = measure { 3/2 -> inl unit | 1/2 -> inr unit }")
@example("effect e () = 7/3")
@example("effect e (x : qbit) = proj(x, 5/2)")
@example(DEEP_X)
@example(DEEP_BOT)
def test_check_exits_with_a_documented_code(text):
    code, _ = check_in_process(text)
    assert code in (0, 2, 3, 4, 5)


def test_nesting_bound_is_exact():
    def term(levels):
        return "term t () : qbit = " + "X " * levels + "plus\ncheck t\n"

    # the declaration's body opens two phrases (term, application) before
    # its first `X`, and every `X` opens one more
    code, out = check_in_process(term(MAX_NESTING - 2), "--verify", "all")
    assert code == 0, out
    code, out = check_in_process(term(MAX_NESTING - 1), "--verify", "all")
    assert code == 2 and f"nesting deeper than {MAX_NESTING} at 1:" in out, out


def test_quantum_verifies_contexts_of_more_unit_entries_than_numpy_has_axes():
    # every desugared `let` leaves one `_u : I` in the context of its body
    lets = ["  let q1 = plus in\n"] + [f"  let q{i + 1} = X q{i} in\n" for i in range(1, 120)]
    code, out = check_in_process(
        "term t () : qbit =\n" + "".join(lets) + "  q120\ncheck t\n", "--verify", "quantum"
    )
    assert code == 0 and "check t: evaluated" in out, out
    units = ", ".join(f"u{i} : I" for i in range(70))
    code, out = check_in_process(
        f"lemma l ({units}, q : qbit) : q : qbit\n  by {{ var }}\n", "--verify", "quantum"
    )
    assert code == 0 and "quantum=true" in out, out


def test_file_that_is_not_utf8_exits_2_naming_it(tmp_path):
    path = tmp_path / "latin.qpel"
    path.write_bytes(b"term t () : I = unit -- \xff\n")
    for argv in (["check", str(path)], ["eval", "--backend", "set", str(path), "t"],
                 ["wp", str(path), "t", "e"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = main(argv)
        assert code == 2, (argv, out.getvalue())
        assert f"{path}: not UTF-8 text" in out.getvalue()


@pytest.mark.parametrize("sidecar, message", [
    ('{"l": ', "not a JSON document"),
    ('{"l": {"rule": "sym", "args": {"zz": 1}}}', "rule sym takes no argument named 'zz'"),
    ('{"l": {"premises": []}}', "needs a string 'rule' field"),
    ('{"l": {"rule": "trans", "args": {"via": 3}}}', "argument 'via' of rule trans must be"),
    ('{"l": {"rule": "auto", "args": {"depth": "2"}}}', "argument 'depth' of rule auto must be"),
    ('{"l": {"rule": "sym", "args": []}}', "args of rule sym must be an object"),
    ('{"l": {"rule": "sym", "premises": 7}}', "premises of rule sym must be a list"),
    ('{"l": ' + '{"rule": "sym", "premises": [' * 200 + "{}" + "]}" * 200 + "}",
     "nested deeper than"),
])
def test_malformed_sidecar_is_a_parse_error_naming_it(tmp_path, sidecar, message):
    src = write(tmp_path, "side.qpel", "lemma l (x : I) : (measure { bot(0) -> x }) = x : I\n")
    (tmp_path / "side.qpel.proofs.json").write_text(sidecar)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", src])
    assert code == 2, out.getvalue()
    assert f"parse error: {src}.proofs.json: " in out.getvalue()
    assert message in out.getvalue()


def _check_with_sidecar(tmp_path, text, script):
    """`qpel check` on text whose one lemma has `script`, as a JSON object,
    in the sidecar: (exit code, printed report)."""
    src = write(tmp_path, "side.qpel", text)
    (tmp_path / "side.qpel.proofs.json").write_text(json.dumps({"l": script}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", src])
    return code, out.getvalue()


# a sidecar script names the declarations before its lemma as an inline
# script does: a type, or a closed effect
SIDECAR_DECLS = "type B = I + I\neffect top () = bot(0)\n"
SIDECAR_LEMMAS = [
    ("lemma l (m : I) : case (inl m : B) of inl x -> x | inr y -> y = m : I", "beta-plus-1[ty = B]",
     {"rule": "beta-plus-1", "args": {"ty": "B"}}),
    ("lemma l () : bot(0) <= bot(0)", "leq-trans[via = top](leq-ref; leq-ref)",
     {"rule": "leq-trans", "args": {"via": "top"}, "premises": [{"rule": "leq-ref"}, {"rule": "leq-ref"}]}),
]


@pytest.mark.parametrize("lemma, inline, script", SIDECAR_LEMMAS, ids=["type", "effect"])
def test_a_sidecar_script_resolves_the_files_declarations(tmp_path, lemma, inline, script):
    assert main(["check", write(tmp_path, "inline.qpel", f"{SIDECAR_DECLS}{lemma}\n  by {{ {inline} }}\n")]) == 0
    code, report = _check_with_sidecar(tmp_path, f"{SIDECAR_DECLS}{lemma}\n", script)
    assert code == 0, report


def test_a_sidecar_script_names_no_declaration_after_its_lemma(tmp_path):
    """As inline, a name is resolved against the declarations before the
    lemma; an unknown one is a parse error naming the sidecar."""
    lemma = "lemma l (m : I) : case (inl m : I + I) of inl x -> x | inr y -> y = m : I\n"
    for text, name in ((lemma, "Foo"), (lemma + "type B = I + I\n", "B")):
        code, report = _check_with_sidecar(tmp_path, text, {"rule": "beta-plus-1", "args": {"ty": name}})
        assert code == 2, report
        assert f"side.qpel.proofs.json: script for lemma 'l': unknown type name {name!r}" in report


def test_a_sidecar_entry_that_names_no_lemma_is_a_parse_error(tmp_path):
    """A misspelt lemma name in the sidecar is reported, not dropped while
    the lemma it meant is proved by `auto`."""
    src = write(tmp_path, "side.qpel", "lemma l (x : qbit) : proj(x, 0) <= proj(x, 0)\n")
    (tmp_path / "side.qpel.proofs.json").write_text(json.dumps({"typo": {"rule": "zero-leq"}}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", src])
    assert code == 2, out.getvalue()
    assert f"parse error: {src}.proofs.json: script for 'typo', which is no lemma of the file" in out.getvalue()


# A premise binder named like an entry of its zone's context once ended in
# "duplicate variable in context" with exit 1: by the schema of the formation
# rule, by a schema that extends a zone with a raw binder, and by search.
CLASHING_BINDER = (
    "lemma p (b : qbit, s : I + I) : "
    "(caseE s of inl a -> proj(b, 0) | inr b -> 0) o+ (caseE s of inl a -> 0 | inr b -> 0)"
    " <= caseE s of inl a -> proj(b, 0) o+ 0 | inr b -> 0 o+ 0 by { %s }\n"
)


@pytest.mark.parametrize("text", [
    "lemma p (b : qbit, s : I + I) : caseE s of inl a -> proj(b, 0) | inr b -> 0 eff"
    " by { eff-case }\n",
    CLASHING_BINDER % "case-ovee",
    CLASHING_BINDER % "auto(4)",
], ids=["eff-case", "case-ovee", "auto"])
def test_premise_binder_clashing_with_its_zone(text):
    code, out = check_in_process(text, "--verify", "all")
    assert code == 0 and "quantum=true" in out, out


def test_python_m_qpel_runs_the_command_line():
    out = subprocess.run([sys.executable, "-m", "qpel", "check", "corpus/intro.qpel"],
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "[ok  ]" in out.stdout


# False lemmas that a rule once proved by moving a subterm under a binder, or
# out from under one, that captures its variable x (or a, for measure-case)
CAPTURES = {
    "let-tensor": "(p : (I + I) * (I + I), x : I + I) : (let x * y = p in y) * x = let x * y = p in y * x"
                  " : (I + I) * (I + I) by { let-tensor }",
    "case-tensor": "(s : (I + I) + (I + I), x : I + I) : (case s of inl x -> unit | inr y -> unit) * x"
                   " = case s of inl x -> unit * x | inr y -> unit * x : I * (I + I) by { case-tensor }",
    "let-commute": "(p : (I + I) * (I + I), q : I * I, x : I + I) : let x * y = p in let t * u = q in x"
                   " = let t * u = let x * y = p in q in x : I + I by { let-commute }",
    "let-case": "(s : (I + I) + (I + I), w : I, x : I + I) : let z * t = case s of inl x -> unit * w"
                " | inr y -> unit * w in x = case s of inl x -> let z * t = unit * w in x"
                " | inr y -> let z * t = unit * w in x : I + I by { let-case }",
    "case-commute": "(s : (I + I) + (I + I), x : I + I) : case s of inl x -> case (inl unit : I + I) of"
                    " inl z -> x | inr t -> x | inr y -> case (inl unit : I + I) of inl z -> x | inr t -> x"
                    " = case (case s of inl x -> (inl unit : I + I) | inr y -> (inl unit : I + I) : I + I)"
                    " of inl z -> x | inr t -> x : I + I by { case-commute[ty = (I + I) + (I + I), ty2 = I + I] }",
    "measure-case": "(s : (I + I) + (I + I), a : I + I) : measure { caseE s of inl a -> bot(0)"
                    " | inr b -> bot(0) -> a } = case s of inl a -> measure { bot(0) -> a }"
                    " | inr b -> measure { bot(0) -> a } : I + I requires { leq-trans[via = caseE s of"
                    " inl a -> bot(0) | inr b -> bot(0)](eta-plus-eff; leq-ref); auto; auto } by { measure-case }",
    "eta-plus-eff": "(z : (I + I) + (I + I), x : I + I) : caseE x of inl a -> bot(0) | inr b -> 0"
                    " <= caseE z of inl x -> (caseE x of inl a -> bot(0) | inr b -> 0)"
                    " | inr y -> (caseE x of inl a -> bot(0) | inr b -> 0) by { eta-plus-eff }",
}


# how a rule given as code, and the search, refuse their probes; a pattern
# rule gives its one message
REFUSALS = {
    "measure-case": "measure-case: schema mismatch: a case binder of the right side would capture a variable of a",
    "eta-plus-eff": "eta-plus-eff: schema mismatch: conclusion must eta-expand an effect at a sum variable",
    "auto": "auto: no proof found within depth 6 for z : I + I + (I + I), x : I + I |- caseE x of",
}


@pytest.mark.parametrize("rule", [*CAPTURES, "auto"])
def test_a_binder_that_would_capture_is_refused(rule):
    text = CAPTURES.get(rule, CAPTURES["eta-plus-eff"].replace("{ eta-plus-eff }", "{ auto }"))
    code, out = check_in_process(f"lemma probe {text}\n")
    assert code == 4, out
    refusal = REFUSALS.get(rule, f"{rule}: schema mismatch: conclusion must be `")
    assert f"[FAIL] lemma probe: typechecked -- {refusal}" in out, out


def test_a_qubit_only_an_ascription_names_is_not_verified_where_there_are_none():
    # the ascription, which the checker erases, alone says the scrutinee's
    # type has a qubit; the set and stochastic backends have none
    text = ("lemma p () : case (inr unit : qbit + I) of inl x -> unit | inr y -> y = unit : I\n"
            "  by { beta-plus-2[ty = qbit + I] }\n\n"
            "term t () : I = case (inr unit : qbit + I) of inl x -> unit | inr y -> y\n\ncheck t\n")
    code, out = check_in_process(text, "--verify", "all")
    assert code == 0, out
    assert "lemma p: backend-verified (quantum=true, set=skipped, stochastic=skipped)" in out
    assert "check t: evaluated (quantum=block 0: [[1]], set=skipped, stochastic=skipped)" in out
