"""Command-line tool: validate, run, trace, optimize, diff, and export
programs in the seanode/1 file format."""

import argparse
import sys
import textwrap

from .dot import graph_to_dot
from .equivalence import Domain, Equivalence, behavior_diff
from .fileformat import FormatError, load, save
from .interproc import EXIT_CODES, run
from .ir import Program
from .optimize import PASS_NAMES, IterationCapExceeded, apply_pass
from .runtime import INT_MAX, INT_MIN, IntVal
from .wellformed import check


class CliError(Exception):
    """Bad invocation or bad input; code 2 for usage errors, 1 for
    validation failures."""

    def __init__(self, message, code=2):
        super().__init__(message)
        self.code = code


def _load(path):
    try:
        return load(path)
    except FileNotFoundError:
        raise CliError(f"no such file: {path}")
    except OSError as e:
        raise CliError(f"{path}: {e.strerror or e}")
    except FormatError as e:
        raise CliError(f"{path}: {e}")


def _resolve(program, name):
    try:
        return program.resolve(name)
    except KeyError as e:
        raise CliError(str(e.args[0]))


def _parse_args_list(text):
    if not text:
        return []
    out = []
    for part in text.split(","):
        try:
            n = int(part)
        except ValueError:
            raise CliError(f"arguments must be integers, got {part!r}")
        if not INT_MIN <= n <= INT_MAX:
            raise CliError(f"argument out of 32-bit range: {n}")
        out.append(IntVal(n))
    return out


# The most values diff --domain accepts; a wider range is a usage error,
# raised before the range is built.
MAX_DOMAIN = 1 << 16


def _parse_domain(text):
    lo, sep, hi = text.partition("..")
    if not sep:
        raise CliError(f"domain must look like lo..hi, got {text!r}")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise CliError(f"domain bounds must be integers: {text!r}")
    if lo > hi:
        raise CliError(f"empty domain {text!r}")
    if lo < INT_MIN or hi > INT_MAX:
        raise CliError(f"domain bounds out of 32-bit range: {text!r}")
    if hi - lo >= MAX_DOMAIN:
        raise CliError(f"domain {text!r} has {hi - lo + 1} values, more than {MAX_DOMAIN}")
    return tuple(range(lo, hi + 1))


def _fuel(args):
    if args.fuel <= 0:
        raise CliError(f"fuel must be positive, got {args.fuel}")
    return args.fuel


def cmd_validate(args) -> int:
    program = _load(args.file)
    all_ok = True
    for sig, g in program.methods.items():
        report = check(g)
        if report.ok:
            print(f"{sig}: ok")
        else:
            all_ok = False
            print(f"{sig}: {len(report.violations)} violation(s)")
            print(textwrap.indent(str(report), "  "))
    return 0 if all_ok else 1


def _checked_program(path):
    program = _load(path)
    for sig, g in program.methods.items():
        report = check(g)
        if not report.ok:
            raise CliError(f"{path}: method {sig} is not well-formed:\n{report}", code=1)
    return program


def cmd_run(args, trace=False) -> int:
    fuel = _fuel(args)
    program = _checked_program(args.file)
    sig = _resolve(program, args.method)
    params = _parse_args_list(args.args)
    if len(params) != len(sig.parameterTypes):
        raise CliError(
            f"{sig} expects {len(sig.parameterTypes)} argument(s), got {len(params)}"
        )
    on_step = (lambda rec: print(rec.line())) if trace else None
    result = run(program, sig, params, fuel=fuel, on_step=on_step)
    print(result)
    return EXIT_CODES[result.outcome]


def cmd_opt(args) -> int:
    program = _checked_program(args.file)
    out_methods = {}
    for sig, g in program.methods.items():
        try:
            g2, report = apply_pass(g, args.pass_name)
        except IterationCapExceeded as e:
            print(f"{args.file}: {sig}: {e}", file=sys.stderr)
            return 1
        out_methods[sig] = g2
        print(f"{sig}: {len(report.rewrites)} rewrite(s), "
              f"{report.iterations} iteration(s), fixpoint={report.fixpoint}")
        for line in report.log_lines():
            print(line)
    try:
        save(Program(out_methods), args.output)
    except OSError as e:
        raise CliError(f"{args.output}: {e.strerror or e}")
    return 0


def cmd_diff(args) -> int:
    fuel = _fuel(args)
    domain = Domain(_parse_domain(args.domain))
    left = _checked_program(args.file1)
    right = _checked_program(args.file2)
    sig = _resolve(left, args.method)
    if right.graph(sig) is None:
        raise CliError(f"{args.file2} has no method {sig}")
    verdict = behavior_diff(left, right, sig, domain, fuel=fuel)
    print(verdict)
    return 0 if verdict.status is Equivalence.EQUIVALENT else 1


def cmd_export_dot(args) -> int:
    program = _load(args.file)
    sig = _resolve(program, args.method)
    sys.stdout.write(graph_to_dot(program.graph(sig), str(sig)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seanode",
        description="Interpret, optimize, and compare sea-of-nodes IR programs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check well-formedness of every method")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    for name, trace in (("run", False), ("trace", True)):
        p = sub.add_parser(name, help="execute a method" + (" with a step trace" if trace else ""))
        p.add_argument("file")
        p.add_argument("--method", required=True)
        p.add_argument("--args", default="", help="comma-separated integers")
        p.add_argument("--fuel", type=int, default=1_000_000)
        p.set_defaults(fn=lambda a, _t=trace: cmd_run(a, trace=_t))

    p = sub.add_parser("opt", help="apply an optimizer pass and write the result")
    p.add_argument("file")
    p.add_argument("--pass", dest="pass_name", choices=PASS_NAMES, default="all")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("diff", help="differential execution of two programs")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--method", required=True)
    p.add_argument("--domain", default="-2..2", help="parameter range lo..hi")
    p.add_argument("--fuel", type=int, default=100_000)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("export-dot", help="emit a DOT digraph for a method")
    p.add_argument("file")
    p.add_argument("--method", required=True)
    p.set_defaults(fn=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CliError as e:
        print(f"seanode: {e}", file=sys.stderr)
        return e.code


if __name__ == "__main__":
    sys.exit(main())
