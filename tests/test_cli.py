import json

import pytest

from conftest import corpus
from genutil import STUCK_PHI_SIG, stuck_phi_program
from seanode import cli
from seanode.cli import main
from seanode.dot import graph_to_dot
from seanode.fileformat import dumps, load, save
from seanode.interproc import run
from seanode.ir import Graph, Program, RefNode, ReturnNode, Signature, StartNode
from seanode.runtime import IntVal


def fact_path(corpus_dir):
    return str(corpus_dir / "factorial.json")


def test_validate_ok(corpus_dir, capsys):
    assert main(["validate", fact_path(corpus_dir)]) == 0
    out = capsys.readouterr().out
    assert "Loops.fact(int): ok" in out


def test_validate_names_a_malformed_record_on_stderr(fixtures_dir, capsys):
    # Kept out of fixtures/*.json, which every file-driven test loads.
    path = fixtures_dir / "malformed" / "bad-record.json"
    assert main(["validate", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"seanode: {path}: method Bad.record(): node id must be a non-negative integer\n"


def test_validate_broken_phi(fixtures_dir, capsys):
    code = main(["validate", str(fixtures_dir / "broken-phi.json")])
    assert code == 1
    out = capsys.readouterr().out
    assert "wf_phis" in out


def test_run_factorial(corpus_dir, capsys):
    code = main(["run", fact_path(corpus_dir), "--method", "fact", "--args", "5"])
    assert code == 0
    assert capsys.readouterr().out.strip() == "Returned IntVal 120"


def test_negative_arguments_need_the_equals_spelling(corpus_dir, capsys):
    path = str(corpus_dir / "max-merge.json")
    assert main(["run", path, "--method", "max", "--args=-1,2"]) == 0
    assert capsys.readouterr().out.strip() == "Returned IntVal 2"
    # argparse reads "-1,2" after a space as an option, not as the value.
    with pytest.raises(SystemExit) as exc:
        main(["run", path, "--method", "max", "--args", "-1,2"])
    assert exc.value.code == 2
    assert "argument --args: expected one argument" in capsys.readouterr().err


def test_run_method_by_qualified_name(corpus_dir, capsys):
    code = main(["run", fact_path(corpus_dir), "--method", "Loops.fact", "--args", "4"])
    assert code == 0
    assert "IntVal 24" in capsys.readouterr().out


def test_run_uncaught_exit_code(corpus_dir, capsys):
    code = main(["run", str(corpus_dir / "uncaught.json"), "--method", "explode"])
    assert code == 3
    assert "UncaughtException ObjRef 0" in capsys.readouterr().out


def test_run_out_of_fuel_exit_code(corpus_dir, capsys):
    code = main(["run", str(corpus_dir / "spin.json"), "--method", "spin", "--fuel", "250"])
    assert code == 4
    assert "OutOfFuel after 250 steps" in capsys.readouterr().out


def test_run_stuck_exit_code(tmp_path, capsys):
    doc = {
        "version": "seanode/1",
        "methods": [{
            "signature": {"class": "T", "name": "m", "params": []},
            "nodes": [
                {"id": 0, "kind": "StartNode", "fields": {"next": 2}},
                {"id": 1, "kind": "MethodCallTargetNode",
                 "fields": {"targetMethod": {"class": "T", "name": "ghost", "params": []},
                            "arguments": []}},
                {"id": 2, "kind": "InvokeNode",
                 "fields": {"selfId": 2, "callTarget": 1, "next": 3}},
                {"id": 3, "kind": "ReturnNode", "fields": {}},
            ],
        }],
    }
    path = tmp_path / "missing-callee.json"
    path.write_text(json.dumps(doc))
    code = main(["run", str(path), "--method", "m"])
    assert code == 5
    assert "Stuck" in capsys.readouterr().out


def test_run_stuck_at_a_non_int_first_operand(fixtures_dir, capsys):
    # check-clean: gap B's return MulNode(NewInstance, 0), as the CLI smoke runs it.
    path = str(fixtures_dir / "stuck" / "mul-object.json")
    assert main(["validate", path]) == 0
    capsys.readouterr()
    assert main(["run", path, "--method", "mulObject"]) == 5
    assert capsys.readouterr().out == "Stuck: @1: expected an integer, got ObjRef 0\n"


def test_run_wrong_arg_count(corpus_dir, capsys):
    code = main(["run", fact_path(corpus_dir), "--method", "fact", "--args", "1,2"])
    assert code == 2
    assert "expects 1 argument" in capsys.readouterr().err


def test_run_unknown_method(corpus_dir, capsys):
    assert main(["run", fact_path(corpus_dir), "--method", "nope"]) == 2


def test_run_unloadable_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["validate", str(path)]) == 2
    assert "broken.json" in capsys.readouterr().err


@pytest.mark.parametrize("make", [
    lambda path: path.mkdir(),
    lambda path: path.write_bytes(b"\xff\xfe"),
    lambda path: path.write_text("[" * 200_000),
], ids=["directory", "non-utf8", "deep-nesting"])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, make):
    path = tmp_path / "input.json"
    make(path)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"seanode: {path}: ") and captured.out == ""


def test_trace_line_count_matches_steps(corpus_dir, capsys):
    code = main(["trace", fact_path(corpus_dir), "--method", "fact", "--args", "3"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    step_lines = [l for l in lines if l.startswith("step ")]
    p = corpus("factorial")
    result = run(p, p.resolve("fact"), [IntVal(3)])
    assert len(step_lines) == result.steps
    assert lines[-1] == "Returned IntVal 6"
    assert step_lines[0] == "step 1: 0 StartNode -> 2"


def test_trace_shows_state_and_heap_deltas(corpus_dir, capsys):
    main(["trace", str(corpus_dir / "heap-pair.json"), "--method", "pairSum"])
    out = capsys.readouterr().out
    assert "[m: 1<-ObjRef 0]" in out
    assert "[h: (0,x)<-IntVal 9]" in out


def test_trace_static_store_rendering(corpus_dir, capsys):
    main(["trace", str(corpus_dir / "static-counter.json"), "--method", "statics"])
    assert "[h: (static,counter)<-IntVal 3]" in capsys.readouterr().out


def test_opt_writes_equivalent_program(corpus_dir, tmp_path, capsys):
    src = str(corpus_dir / "canon-chain.json")
    out_path = str(tmp_path / "canon-chain-opt.json")
    code = main(["opt", src, "--pass", "canonicalize", "-o", out_path])
    assert code == 0
    log = capsys.readouterr().out
    assert "fold-add @3: AddNode -> ConstantNode" in log
    assert "fold-mul @5: MulNode -> ConstantNode" in log

    assert main(["validate", out_path]) == 0
    capsys.readouterr()
    code = main(["diff", src, out_path, "--method", "foldChain", "--domain", "0..0"])
    assert code == 0
    assert "Equivalent" in capsys.readouterr().out


# A directory, and a file in a directory that does not exist.
@pytest.mark.parametrize("name", ["dir.json", "missing/out.json"])
def test_unwritable_output_is_a_usage_error(corpus_dir, tmp_path, capsys, name):
    (tmp_path / "dir.json").mkdir()
    out_path = tmp_path / name
    code = main(["opt", str(corpus_dir / "canon-chain.json"), "--pass", "canonicalize",
                 "-o", str(out_path)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"seanode: {out_path}: ")


def test_diff_detects_broken_rewrite(corpus_dir, tmp_path, capsys):
    src = corpus_dir / "if-const-true.json"
    program = load(src)
    g = program.graph(list(program.methods)[0])
    broken = Program({list(program.methods)[0]: g.replace_node(3, RefNode(next=5))})
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(dumps(broken))

    code = main(["diff", str(src), str(broken_path), "--method", "constTrue",
                 "--domain=-2..2"])
    assert code == 1
    out = capsys.readouterr().out
    assert "NotEquivalent" in out and "witness" in out


def test_diff_equivalent_programs(corpus_dir, capsys):
    src = fact_path(corpus_dir)
    code = main(["diff", src, src, "--method", "fact", "--domain", "0..6"])
    assert code == 0
    assert "Equivalent (7 assignments tried)" in capsys.readouterr().out


def test_export_dot(corpus_dir, capsys):
    code = main(["export-dot", fact_path(corpus_dir), "--method", "fact"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith('digraph "Loops.fact(int)" {')
    assert '  n12 [label="12: IfNode"];' in out
    assert "n12 -> n13 [style=solid];" in out   # successor edge
    assert "n11 -> n12 [style=dashed];" in out  # condition input, drawn input->user
    assert out.endswith("}\n")


TINY = Graph({0: StartNode(next=1), 1: ReturnNode(resultOpt=None)})


@pytest.mark.parametrize("name, quoted", [
    ("A\\", r'"A\\"'),
    ('say "hi"', r'"say \"hi\""'),
    ('\\"', r'"\\\""'),
])
def test_dot_name_escapes_backslashes_and_quotes(name, quoted):
    assert graph_to_dot(TINY, name).startswith(f"digraph {quoted} {{\n")


def test_export_dot_escapes_a_backslash_in_the_signature(tmp_path, capsys):
    path = tmp_path / "p.json"
    save(Program({Signature("A\\", "m", ()): TINY}), path)
    assert main(["export-dot", str(path), "--method", "m"]) == 0
    assert capsys.readouterr().out.startswith(r'digraph "A\\.m()" {')


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_run_rejects_malformed_program_as_validation_failure(fixtures_dir, capsys):
    code = main(["run", str(fixtures_dir / "broken-phi.json"),
                 "--method", "brokenPhi", "--args", "1,2"])
    assert code == 1
    assert "wf_phis" in capsys.readouterr().err


def test_opt_folds_a_sub_node(fixtures_dir, tmp_path, capsys):
    src = str(fixtures_dir / "sub-fold.json")
    out_path = str(tmp_path / "sub-fold-opt.json")
    assert main(["opt", src, "--pass", "canonicalize", "-o", out_path]) == 0
    assert "fold-sub @3: SubNode -> ConstantNode" in capsys.readouterr().out.splitlines()
    assert main(["diff", src, out_path, "--method", "subFold"]) == 0
    assert capsys.readouterr().out.strip() == "Equivalent (1 assignments tried)"


def test_opt_then_diff_factorial(corpus_dir, tmp_path, capsys):
    src = fact_path(corpus_dir)
    out_path = str(tmp_path / "factorial-opt.json")
    assert main(["opt", src, "--pass", "all", "-o", out_path]) == 0
    capsys.readouterr()
    code = main(["diff", src, out_path, "--method", "fact", "--domain", "0..6"])
    assert code == 0
    assert "Equivalent" in capsys.readouterr().out


def test_bad_domain_argument(corpus_dir, capsys):
    code = main(["diff", fact_path(corpus_dir), fact_path(corpus_dir),
                 "--method", "fact", "--domain", "oops"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["diff", "FACT", "FACT", "--method", "fact", "--domain", "2147483647..2147483648"],
    ["diff", "FACT", "FACT", "--method", "fact", "--domain=-2147483649..0"],
    ["diff", "FACT", "FACT", "--method", "fact", "--fuel", "0"],
    ["run", "FACT", "--method", "fact", "--args", "3", "--fuel", "0"],
    ["trace", "FACT", "--method", "fact", "--args", "3", "--fuel", "-1"],
])
def test_bad_numeric_option_is_a_usage_error(corpus_dir, capsys, argv):
    argv = [fact_path(corpus_dir) if a == "FACT" else a for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("seanode: ") and captured.out == ""


@pytest.mark.parametrize("lo, hi", [(-2 ** 31, 2 ** 31 - 1), (0, cli.MAX_DOMAIN)])
def test_a_domain_wider_than_the_cap_is_refused_before_it_is_built(corpus_dir, capsys,
                                                                 monkeypatch, lo, hi):
    # The full 32-bit range would be 2**32 ints: building any range fails here.
    monkeypatch.setattr(cli, "range", lambda *_: pytest.fail("range built"), raising=False)
    path = fact_path(corpus_dir)
    assert main(["diff", path, path, "--method", "fact", f"--domain={lo}..{hi}"]) == 2
    assert capsys.readouterr() == (
        "", f"seanode: domain '{lo}..{hi}' has {hi - lo + 1} values, more than 65536\n")
    monkeypatch.undo()
    assert cli._parse_domain(f"1..{cli.MAX_DOMAIN}") == tuple(range(1, cli.MAX_DOMAIN + 1))


def test_stuck_phi_update_is_classified(tmp_path, capsys):
    path = str(tmp_path / "stuck.json")
    save(stuck_phi_program(), path)
    method = STUCK_PHI_SIG.methodName
    assert main(["validate", path]) == 0
    assert main(["run", path, "--method", method]) == 5
    assert "Stuck: @5: parameter index 3 with 0 parameters" in capsys.readouterr().out
    assert main(["diff", path, path, "--method", method]) == 0
    assert capsys.readouterr().out.startswith("Equivalent")
