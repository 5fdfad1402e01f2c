"""Command-line front end: compile, query, eq, check, bench."""

from __future__ import annotations

import argparse
import csv
import decimal
import io
import itertools
import logging
import multiprocessing
import os
import sys
import time
from pathlib import Path

from . import checks, compiler, queries
from .cnf import parse_dimacs
from .compiler import CompileConfig, VarOrder, bandwidth_order
from .queries import LanguageError
from .store import Circuit, parse_nnf, serialize, stats

LANG_MODES = {"fbdd": "free", "obdd": "ordered", "ddnnf": "decomposed"}
DEFAULT_TIME_LIMIT = 900.0
TIME_LIMIT_ENV = "DPLLC_TIME_LIMIT"

log = logging.getLogger("dpllc")


def _read(path: str, parse):
    """parse(text of path); an unreadable file or a parse error (always a
    ValueError) exits with a one-line message naming the file."""
    try:
        return parse(Path(path).read_text())
    except OSError as exc:
        raise SystemExit("error: cannot read %s: %s" % (path, exc))
    except ValueError as exc:
        raise SystemExit("error: %s: %s" % (path, exc))


def _write(path: str, text: str) -> None:
    """Write text to path; an unwritable path exits with a one-line message."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise SystemExit("error: cannot write %s: %s" % (path, exc))


_COUNT_LEAF_BITS = 4096  # about 1,233 digits, well inside str's limit

# `query --count` refuses a larger declared universe before counting: the
# count has up to universe * log10(2) digits.  At this cap a two-variable
# circuit's count is 3,010,300 digits, counted and converted in 0.85 s at
# 31 MB peak RSS (CPython 3.11, one core of a 2-vCPU VM); at 2*10^9 it
# would take minutes and gigabytes.  `check --language obdd` without
# `--order` refuses a larger bound N the same way, since it prints an
# order completed over all of 1..N.
MAX_COUNT_UNIVERSE = 10**7


def _count_text(n: int) -> str:
    """Decimal text of a non-negative count of any size.

    str(int) refuses more than 4,300 digits and is quadratic in the digit
    count.  So the count is split into binary halves, down to pieces of
    _COUNT_LEAF_BITS, which are joined again in decimal arithmetic, whose
    big multiplication is subquadratic: at 10^6 digits this took 0.21 s,
    against 19.5 s for str with the limit lifted and 12.5 s for splitting
    at powers of ten (CPython 3.11, one core of a 2-vCPU VM; 0.021 / 0.19
    / 0.14 s at 10^5 digits).
    """
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    powers: dict[int, decimal.Decimal] = {}

    def value(m: int, bits: int) -> decimal.Decimal:
        if bits <= _COUNT_LEAF_BITS:
            return decimal.Decimal(m)
        half = bits >> 1
        if half not in powers:
            powers[half] = ctx.power(2, half)
        high = value(m >> half, bits - half)
        return ctx.add(ctx.multiply(high, powers[half]), value(m & ((1 << half) - 1), half))

    return str(value(n, n.bit_length()))


def _parse_lits(text: str) -> list[int]:
    try:
        lits = [int(tok) for tok in text.split()]
    except ValueError:
        raise SystemExit("error: literals must be signed integers, got %r" % text)
    if 0 in lits:
        raise SystemExit("error: 0 is not a literal")
    return lits


def _config_from_args(args, order: VarOrder | None) -> CompileConfig:
    return CompileConfig(
        mode=LANG_MODES[args.lang],
        caching=not args.no_cache,
        unit_propagation=not args.no_up,
        heuristic="max-occurrence" if args.heuristic == "maxocc" else "min-index",
        order=order,
    )


def cmd_compile(args) -> int:
    cnf = _read(args.input, parse_dimacs)
    order = _read(args.order, VarOrder.from_text) if args.lang == "obdd" else None
    cfg = _config_from_args(args, order)
    start = time.perf_counter()
    try:
        circuit = compiler.compile_cnf(cnf, cfg)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    elapsed = time.perf_counter() - start
    _write(args.output, serialize(circuit))
    nodes, edges = stats(circuit)
    print("nodes=%d edges=%d time=%.3f" % (nodes, edges, elapsed))
    return 0


def _require_ddnnf(circuit) -> None:
    report = checks.check_decision_dnnf(circuit)
    if not report.verdict:
        raise SystemExit("error: circuit outside decision-DNNF: %s" % report.witness)


def cmd_query(args) -> int:
    circuit = _read(args.circuit, parse_nnf)
    if args.universe is not None:
        if args.universe < circuit.num_vars:
            raise SystemExit("error: --universe below the circuit's own universe")
        circuit = Circuit(circuit.store, circuit.root, args.universe, circuit.fixed)
    _require_ddnnf(circuit)
    try:
        _answer_query(args, circuit)
    except ValueError as exc:
        # A term on a variable above the universe or already fixed.
        raise SystemExit("error: %s" % exc)
    return 0


def _answer_query(args, circuit) -> None:
    if args.count:
        if circuit.universe > MAX_COUNT_UNIVERSE:
            raise SystemExit(
                "error: --count serves a universe of at most %d variables, not %d"
                % (MAX_COUNT_UNIVERSE, circuit.universe)
            )
        print(_count_text(queries.model_count(circuit)))
    elif args.sat:
        print("true" if queries.is_consistent(circuit) else "false")
    elif args.valid:
        print("true" if queries.is_valid(circuit) else "false")
    elif args.entails is not None:
        print("true" if queries.entails_clause(circuit, _parse_lits(args.entails)) else "false")
    elif args.implicant is not None:
        print("true" if queries.is_implicant(_parse_lits(args.implicant), circuit) else "false")
    elif args.enumerate:
        models = queries.enumerate_models(circuit)
        if args.limit is not None:
            models = itertools.islice(models, args.limit)
        for term in models:
            print(" ".join(str(l) for l in sorted(term, key=abs)))
    elif args.condition is not None:
        conditioned = queries.condition_circuit(circuit, _parse_lits(args.condition))
        out = args.output or (str(Path(args.circuit).with_suffix("")) + ".cond.nnf")
        _write(out, serialize(conditioned))
        nodes, edges = stats(conditioned)
        print("wrote %s nodes=%d edges=%d" % (out, nodes, edges))


def cmd_eq(args) -> int:
    a = _read(args.a, parse_nnf)
    b = _read(args.b, parse_nnf)
    try:
        verdict = queries.prob_equiv(a, b, seed=args.seed, rounds=args.rounds)
    except ValueError as exc:
        raise SystemExit("error: %s" % exc)
    if verdict.equivalent:
        print(
            "equivalent-probably rounds=%d error_bound<=%s"
            % (verdict.rounds, verdict.error_bound)
        )
    else:
        print("not-equivalent round=%d" % verdict.rounds)
    return 0


def cmd_check(args) -> int:
    circuit = _read(args.circuit, parse_nnf)
    if args.language == "fbdd":
        report = checks.check_fbdd(circuit)
    elif args.language == "obdd":
        order = _read(args.order, VarOrder.from_text) if args.order else None
        if order is None and circuit.num_vars > MAX_COUNT_UNIVERSE:
            raise SystemExit(
                "error: --language obdd without --order serves at most %d variables, not %d"
                % (MAX_COUNT_UNIVERSE, circuit.num_vars)
            )
        report = checks.check_obdd(circuit, order)
    else:
        report = checks.check_decision_dnnf(circuit)
    line = report.summary()
    if report.order is not None:
        line += " order=%s" % ",".join(map(str, report.order))
    print(line)
    return 0


def _bench_worker(path: str, lang: str, order: VarOrder | None, memory_mb: int | None, conn):
    try:
        if memory_mb is not None:
            import resource

            limit = memory_mb * 1024 * 1024
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        cnf = parse_dimacs(Path(path).read_text())
        # Like the time limit, the reported time counts the order bench computes.
        start = time.perf_counter()
        if lang == "obdd" and order is None:
            order = bandwidth_order(cnf)
        cfg = CompileConfig(mode=LANG_MODES[lang], order=order if lang == "obdd" else None)
        circuit = compiler.compile_cnf(cnf, cfg)
        elapsed = time.perf_counter() - start
        _, edges = stats(circuit)
        conn.send(("ok", _count_text(queries.model_count(circuit)), edges, elapsed))
    except MemoryError:
        conn.send(("memout", None, None, None))
    except Exception as exc:  # report, don't crash the harness
        conn.send(("error:%s" % exc, None, None, None))
    finally:
        conn.close()


def _bench_instance(path: Path, order: VarOrder | None, time_limit: float, memory_mb: int | None):
    row: dict[str, str] = {"instance": path.stem}
    statuses = []
    counts = {}
    for lang in ("obdd", "fbdd", "ddnnf"):
        parent, child = multiprocessing.Pipe(duplex=False)
        proc = multiprocessing.Process(
            target=_bench_worker, args=(str(path), lang, order, memory_mb, child)
        )
        proc.start()
        child.close()
        result = None
        if parent.poll(time_limit):
            result = parent.recv()
        overran = proc.is_alive() and result is None
        if proc.is_alive():
            proc.terminate()
        proc.join()
        parent.close()
        if result is not None:
            status = result[0]
        elif overran:
            status = "timeout"
        else:
            # Died without reporting: an allocation the limit refused, or a kill.
            status = "memout" if (proc.exitcode or 0) < 0 else "error:crashed"
        if status == "ok":
            counts[lang] = result[1]
            row["%s_size" % lang] = str(result[2])
            row["%s_time" % lang] = "%.3f" % result[3]
        else:
            row["%s_size" % lang] = "-"
            row["%s_time" % lang] = "-"
            statuses.append("%s=%s" % (lang, status))
    if counts and len(set(counts.values())) > 1:
        statuses.append("mismatch")
        row["models"] = "-"
    else:
        row["models"] = next(iter(counts.values()), "-")
    row["status"] = ";".join(statuses) if statuses else "ok"
    return row


BENCH_COLUMNS = [
    "instance",
    "models",
    "obdd_size",
    "obdd_time",
    "fbdd_size",
    "fbdd_time",
    "ddnnf_size",
    "ddnnf_time",
    "status",
]


def cmd_bench(args) -> int:
    directory = Path(args.directory)
    if not directory.is_dir():
        raise SystemExit("error: %s is not a directory" % directory)
    time_limit = args.time_limit
    if time_limit is None:
        time_limit = float(os.environ.get(TIME_LIMIT_ENV, DEFAULT_TIME_LIMIT))
    order = _read(args.order, VarOrder.from_text) if args.order else None
    paths = sorted(directory.glob("*.cnf"))
    rows = []
    for path in paths:
        try:
            path.read_bytes()
        except OSError as exc:
            log.warning("skipping unreadable %s: %s", path, exc)
            continue
        rows.append(_bench_instance(path, order, time_limit, args.memory_mb))
    out = io.StringIO(newline="")
    writer = csv.DictWriter(out, fieldnames=BENCH_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    if args.output:
        _write(args.output, out.getvalue())
    else:
        sys.stdout.write(out.getvalue())
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpllc",
        description="Compile CNF into FBDD/OBDD/decision-DNNF circuits and query them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a DIMACS CNF file to a .nnf circuit")
    p.add_argument("--lang", choices=sorted(LANG_MODES), required=True)
    p.add_argument("--order", help="variable-order file (required with --lang obdd)")
    p.add_argument("--no-cache", action="store_true", help="disable formula caching")
    p.add_argument("--no-up", action="store_true", help="disable unit propagation")
    p.add_argument("--heuristic", choices=["maxocc", "minidx"], default="maxocc")
    p.add_argument("input", metavar="INPUT.cnf")
    p.add_argument("-o", "--output", required=True, metavar="OUT.nnf")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("query", help="run a query against a compiled circuit")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--sat", action="store_true")
    g.add_argument("--valid", action="store_true")
    g.add_argument("--count", action="store_true")
    g.add_argument("--entails", metavar="LITS", help='clause as signed ints, e.g. "1 -2"')
    g.add_argument("--implicant", metavar="LITS", help="term as signed ints")
    g.add_argument("--enumerate", action="store_true")
    g.add_argument("--condition", metavar="LITS", help="term to condition on")
    p.add_argument("--limit", type=int, help="cap on enumerated terms")
    p.add_argument("--universe", type=int, help="raise the variable bound N of the header")
    p.add_argument("-o", "--output", help="output circuit for --condition")
    p.add_argument("circuit", metavar="CIRCUIT.nnf")
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("eq", help="probabilistic equivalence of two circuits")
    p.add_argument("a", metavar="A.nnf")
    p.add_argument("b", metavar="B.nnf")
    p.add_argument(
        "--rounds",
        type=int,
        default=queries.EQ_ROUNDS,
        help="random evaluation rounds; each multiplies an equivalent verdict's "
        "error bound by universe / (2^61 - 1) (default %(default)s)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_eq)

    p = sub.add_parser("check", help="language membership of a circuit")
    p.add_argument("--language", choices=sorted(LANG_MODES), required=True)
    p.add_argument("--order", help="variable-order file for --language obdd")
    p.add_argument("circuit", metavar="CIRCUIT.nnf")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("bench", help="compile every .cnf in a directory, emit CSV")
    p.add_argument("directory")
    p.add_argument("--time-limit", type=float, help="seconds per instance per language")
    p.add_argument("--memory-mb", type=int, help="address-space cap per compilation")
    p.add_argument("--order", help="variable-order file used for every obdd run")
    p.add_argument("-o", "--output", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s: %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "compile" and args.lang == "obdd" and not args.order:
        parser.error("--lang obdd requires --order (order choice dominates size)")
    if args.command == "query" and args.limit is not None and args.limit < 0:
        parser.exit(2, "error: --limit must not be negative, got %d\n" % args.limit)
    if args.command == "eq" and args.rounds < 1:
        parser.exit(2, "error: --rounds must be at least 1, got %d\n" % args.rounds)
    try:
        return args.func(args)
    except LanguageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 1
        raise


if __name__ == "__main__":
    sys.exit(main())
