"""Command-line interface: analyze, construct, exponent-set, oracle-check,
scan-open-problem.

Exit codes: 0 success (a "not primitive" verdict is a success), 1 input or
usage error (missing file, parse error, out-of-range parameter, cap), 2
internal verification failure (a construction or cross-check disagreed with
itself), 3 unexpected internal error (any other exception; its traceback goes
to stderr).

Output is deterministic for fixed inputs, flags, and seed: wall-clock timing
goes to stderr so stdout can be compared byte for byte. ``--format
json-lines`` emits one JSON object per line carrying exactly the values the
text mode prints.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import random
import sys
import time
from collections import Counter

from .bitsets import Record, SupportFamily, _set
from .digraphs import matrix_gamma, wielandt_matrix
from .errors import VerificationError
from .families import degree_witness, exponent_set, small_exponent_matrix, wielandt_frontier_tensor, wielandt_tensor
from .formats import _decode, parse_document, render_document, save_document
from .patterns import (
    Cycled,
    PatternTensor,
    Reached,
    analyze,
    check_necessary_conditions,
    default_bound,
    gammas,
)

SCAN_DIM_GUARD = 12


# ---------------------------------------------------------------------------
# reporting


class RunReport:
    """Accumulated result records; both emitters read the same dicts, so the
    text table and the json-lines stream cannot disagree."""

    def __init__(self) -> None:
        self.records = []

    def add(self, **record) -> dict:
        self.records.append(record)
        return record

    def emit(self, fmt: str) -> None:
        # one JSON encoder for every record, not one per json.dumps call
        line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode if fmt == "json-lines" else _text_line
        sys.stdout.write("".join([line(r) + "\n" for r in self.records]))


def _text_line(r: dict) -> str:
    kind = r["record"]
    if kind == "meta":
        parts = [f"command: {r['command']}"]
        if "input" in r:
            parts.append(f"input: {r['input']}")
        parts.append(f"sha256: {r['sha256']}")
        return "\n".join(parts)
    if kind == "document":
        return f"document: {r['kind']} order={r['order']} dim={r['dim']}"
    if kind == "conditions":
        if not r["violations"]:
            return "conditions: ok"
        lines = [
            f"conditions: violation {v['code']}"
            + (f" vertex={v['vertex']}" if v["vertex"] is not None else "")
            + f" ({v['detail']})"
            for v in r["violations"]
        ]
        return "\n".join(lines)
    if kind == "analysis":
        g = "-" if r["gamma"] is None else str(r["gamma"])
        return f"primitive: {'yes' if r['primitive'] else 'no'}\ngamma: {g}"
    if kind == "column":
        g = "-" if r["gamma_j"] is None else str(r["gamma_j"])
        head = f"column {r['j']}: gamma_j={g} {r['outcome']}"
        if r["outcome"] == "reached":
            return f"{head} step={r['step']}"
        if r["outcome"] == "cycled":
            return f"{head} first_repeat_at={r['first_repeat_at']} period={r['period']}"
        return f"{head} bound={r['bound']}"
    if kind == "degree":
        head = f"t={r['t']} kind={r['kind']}"
        if r.get("k") is not None:
            head += f" k={r['k']}"
        if r["status"] == "ok":
            return f"{head} gamma={r['gamma']} ok"
        return f"{head} FAILED ({r['message']})"
    if kind == "degree-summary":
        if r["complete"]:
            return f"achieved == expected (1..{r['expected_max']})"
        missing = ",".join(str(t) for t in r["missing"])
        return f"MISMATCH: missing degrees [{missing}] of 1..{r['expected_max']}"
    if kind == "oracle-summary":
        return f"{r['agreements']}/{r['trials']} agree"
    if kind == "oracle-mismatch":
        return f"mismatch trial={r['trial']}: {r['detail']}"
    if kind == "scan-header":
        return (
            f"NON-EXHAUSTIVE random sample: order={r['order']} dim={r['dim']} "
            f"budget={r['budget']} seed={r['seed']}"
        )
    if kind == "histogram":
        return f"gamma={r['gamma']} count={r['count']}"
    if kind == "scan-summary":
        return (
            f"primitive {r['primitive']}/{r['samples']} sampled; "
            "absence of a degree here is not evidence of a gap"
        )
    raise ValueError(f"unknown record kind {kind!r}")


def _digest_params(params: dict) -> str:
    return hashlib.sha256(json.dumps(params, sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# random tensors for oracle runs (documented so runs are reproducible)


@functools.cache
def _subset_pool(order: int, dim: int) -> tuple[int, ...]:
    """Masks of the nonempty subsets of [dim] with at most order-1 members."""
    return tuple(m for m in range(1, 1 << dim) if m.bit_count() <= order - 1)


def _random_rows(rng: random.Random, order: int, dim: int) -> list[list[int]]:
    """The row masks :func:`random_pattern` draws, as drawn: per row
    ``rng.randint(1, 3)``, then that many ``rng.choice(pool)`` on the subset
    pool. Both are ``r = getrandbits(size.bit_length())``, redrawn while
    ``r >= size``, then ``1 + r`` (size 3) and ``pool[r]``; drawn so here,
    the values and ``rng``'s state after them are the stdlib's. Tests compare
    them with the stdlib calls, and scan digests pin them on Python 3.10-3.13.
    """
    if dim > 16:
        raise ValueError(f"random_pattern enumerates subsets; dim {dim} > 16")
    if order < 2:
        raise ValueError(f"order must be >= 2, got {order}")
    pool = _subset_pool(order, dim)
    size, bits = len(pool), rng.getrandbits
    k = size.bit_length()
    rows = []
    for _ in range(dim):
        count = bits(2)  # randint(1, 3) - 1
        while count == 3:
            count = bits(2)
        row = []
        for _ in range(count + 1):
            r = bits(k)  # choice(pool)'s index
            while r >= size:
                r = bits(k)
            row.append(pool[r])
        rows.append(row)
    return rows


def random_pattern(rng: random.Random, order: int, dim: int) -> PatternTensor:
    """Seeded random pattern tensor: every row receives between 1 and 3 support
    sets, each drawn uniformly among the nonempty subsets of [dim] with at most
    order-1 members (duplicates and dominated draws are absorbed by the
    antichain). Enumeration of the subset pool caps dim at 16."""
    rows = (SupportFamily.from_masks(dim, masks) for masks in _random_rows(rng, order, dim))
    return PatternTensor(order, dim, tuple(rows))


class OracleCheckResult(Record):
    def __init__(
        self, order: int, dim: int, trials: int, agreements: int, mismatches: list[tuple[int, str]],
        associativity_triples: int, explicit_power_trials: int,
    ) -> None:
        _set(self, "order", order)
        _set(self, "dim", dim)
        _set(self, "trials", trials)
        _set(self, "agreements", agreements)
        _set(self, "mismatches", mismatches)
        _set(self, "associativity_triples", associativity_triples)
        _set(self, "explicit_power_trials", explicit_power_trials)


def run_oracle_check(
    order: int, dim: int, trials: int, seed: int, max_k: int
) -> OracleCheckResult:
    """Cross-check the pattern trace engine against the dense oracles on
    ``trials`` seeded random patterns; :func:`primdeg.dense.cross_check` makes
    the comparisons, drawing its associativity triples from the same stream."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if max_k < 1:
        raise ValueError(f"max-k must be >= 1, got {max_k}")
    try:
        from .dense import cross_check
    except ImportError as e:
        raise ValueError(
            f"oracle-check needs numpy ({e}); install the primdeg[oracle] extra"
        ) from None
    rng = random.Random(seed)
    mismatches: list[tuple[int, str]] = []
    ran: list[str] = []
    for trial in range(trials):
        problems, checks = cross_check(random_pattern(rng, order, dim), max_k, rng)
        mismatches.extend((trial, p) for p in problems)
        ran += checks
    agreements = trials - len({t for t, _ in mismatches})
    return OracleCheckResult(
        order, dim, trials, agreements, mismatches, ran.count("associativity"), ran.count("explicit-powers")
    )


# ---------------------------------------------------------------------------
# commands


def cmd_analyze(args: argparse.Namespace) -> int:
    with open(args.path, "rb") as fh:
        data = fh.read()
    doc = parse_document(_decode(data))
    tensor = doc.as_pattern_tensor()
    report = RunReport()
    report.add(record="meta", command="analyze", input=args.path, sha256=hashlib.sha256(data).hexdigest())
    report.add(record="document", kind=doc.kind, order=tensor.order, dim=tensor.dim)
    violations = check_necessary_conditions(tensor)
    report.add(
        record="conditions",
        violations=[{"code": v.code, "vertex": v.vertex, "detail": v.detail} for v in violations],
    )
    result = analyze(tensor, max_steps=args.max_k)
    report.add(
        record="analysis",
        primitive=result.primitive,
        gamma=result.gamma,
        bound=result.bound,
        max_steps=result.max_steps,
    )
    if args.per_column:
        for j, (g, o) in enumerate(zip(result.gamma_by_column, result.outcomes), start=1):
            if isinstance(o, Reached):
                report.add(record="column", j=j, gamma_j=g, outcome="reached", step=o.step)
            elif isinstance(o, Cycled):
                report.add(
                    record="column", j=j, gamma_j=g, outcome="cycled", first_repeat_at=o.first_repeat_at, period=o.period
                )
            else:
                report.add(record="column", j=j, gamma_j=g, outcome="exhausted", bound=o.bound)
    report.emit(args.format)
    return 0


def cmd_construct(args: argparse.Namespace) -> int:
    def need(name: str):
        value = getattr(args, name)
        if value is None:
            raise ValueError(f"kind {args.kind!r} requires --{name}")
        return value

    n = need("n")
    if args.kind == "wielandt":
        payload = wielandt_matrix(n)
        gamma = matrix_gamma(payload)
    elif args.kind == "small-matrix":
        # small_exponent_matrix returns only a matrix whose exponent it verified.
        gamma = need("t")
        payload = small_exponent_matrix(n, gamma)
    elif args.kind == "a0":
        payload = wielandt_tensor(need("m"), n)
        gamma = analyze(payload).gamma
    elif args.kind == "ak":
        payload = wielandt_frontier_tensor(need("m"), n, need("k"))
        gamma = n + args.k  # the degree wielandt_frontier_tensor verified
    else:  # bt: degree_witness returns only a tensor whose degree it verified
        payload, spec = degree_witness(need("m"), n, need("t"))
        gamma = spec.t
    if args.out:
        save_document(args.out, payload)
    else:
        sys.stdout.write(render_document(payload))
    print(f"gamma={'-' if gamma is None else gamma}", file=sys.stdout if args.out else sys.stderr)
    return 0


def cmd_exponent_set(args: argparse.Namespace) -> int:
    if args.n > args.max_n:
        raise ValueError(
            f"dim {args.n} exceeds the desk-scale guard {args.max_n} (raise with --max-n)"
        )
    result = exponent_set(args.m, args.n)
    report = RunReport()
    params = {"order": args.m, "dim": args.n}
    report.add(record="meta", command="exponent-set", sha256=_digest_params(params), **params)
    if args.emit_witnesses:
        os.makedirs(args.emit_witnesses, exist_ok=True)
        width = max(3, len(str(default_bound(args.n))))  # so names sort in degree order
    for w in result.witnesses:
        report.add(
            record="degree",
            t=w.degree,
            kind=w.spec.kind,
            k=w.spec.k,
            gamma=w.degree,
            status="ok",
        )
        if args.emit_witnesses:
            save_document(os.path.join(args.emit_witnesses, f"witness-t{w.degree:0{width}d}.txt"), w.tensor)
    for t, message in result.failures:
        report.add(record="degree", t=t, kind="-", k=None, status="fail", message=message)
    missing = sorted(result.expected - result.achieved)
    report.add(
        record="degree-summary",
        complete=result.complete,
        expected_max=default_bound(args.n),
        missing=missing,
    )
    report.emit(args.format)
    return 0 if result.complete else 2


def cmd_oracle_check(args: argparse.Namespace) -> int:
    result = run_oracle_check(args.m, args.n, args.trials, args.seed, args.max_k)
    report = RunReport()
    params = {
        "order": args.m,
        "dim": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "max_k": args.max_k,
    }
    report.add(record="meta", command="oracle-check", sha256=_digest_params(params), **params)
    for trial, detail in result.mismatches:
        report.add(record="oracle-mismatch", trial=trial, detail=detail)
    report.add(
        record="oracle-summary",
        trials=result.trials,
        agreements=result.agreements,
        associativity_triples=result.associativity_triples,
        explicit_power_trials=result.explicit_power_trials,
    )
    report.emit(args.format)
    return 0 if not result.mismatches else 2


def cmd_scan_open_problem(args: argparse.Namespace) -> int:
    if not 3 <= args.m < args.n:
        raise ValueError(f"requires 3 <= order < dim, got order {args.m}, dim {args.n}")
    if args.n > SCAN_DIM_GUARD:
        raise ValueError(f"dim {args.n} exceeds the desk-scale guard {SCAN_DIM_GUARD}")
    if args.budget < 1:
        raise ValueError(f"budget must be >= 1, got {args.budget}")
    rng = random.Random(args.seed)
    drawn = gammas(args.n, (_random_rows(rng, args.m, args.n) for _ in range(args.budget)))
    counts = Counter(g for g in drawn if g is not None)
    report = RunReport()
    params = {"order": args.m, "dim": args.n, "budget": args.budget, "seed": args.seed}
    report.add(record="meta", command="scan-open-problem", sha256=_digest_params(params), **params)
    report.add(record="scan-header", **params)
    for gamma in sorted(counts):
        report.add(record="histogram", gamma=gamma, count=counts[gamma])
    report.add(record="scan-summary", primitive=counts.total(), samples=args.budget)
    report.emit(args.format)
    return 0


# ---------------------------------------------------------------------------
# parser / entry point


def _analyze_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("path")
    p.add_argument("--max-k", type=int, default=None, help="step budget override")
    p.add_argument("--per-column", action="store_true", help="emit the per-column table")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")


def _construct_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("kind", choices=["wielandt", "a0", "ak", "bt", "small-matrix"])
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--m", type=int, help="order (tensor kinds)")
    p.add_argument("--k", type=int, help="frontier index (kind ak)")
    p.add_argument("--t", type=int, help="target degree (kinds bt, small-matrix)")
    p.add_argument("--out", help="output path (default: document to stdout)")


def _exponent_set_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="order")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--emit-witnesses", metavar="DIR", help="write witness documents here")
    p.add_argument("--max-n", type=int, default=12, help="desk-scale dimension guard")
    p.add_argument("--format", choices=["text", "json-lines"], default="text")


def _oracle_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="order")
    p.add_argument("--n", type=int, required=True, help="dimension")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-k", type=int, default=5)
    p.add_argument("--format", choices=["text", "json-lines"], default="text")


def _scan_open_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--m", type=int, required=True, help="order (>= 3)")
    p.add_argument("--n", type=int, required=True, help="dimension (> order)")
    p.add_argument("--budget", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=["text", "json-lines"], default="text")


# command -> (its line in the top-level help, the function that adds its
# arguments, its handler)
_COMMANDS = {
    "analyze": ("decide primitivity of a tensor document", _analyze_args, cmd_analyze),
    "construct": ("write a canonical document for a known family", _construct_args, cmd_construct),
    "exponent-set": ("witness every degree 1..(n-1)^2+1", _exponent_set_args, cmd_exponent_set),
    "oracle-check": ("cross-check trace engine vs dense oracles", _oracle_check_args, cmd_oracle_check),
    "scan-open-problem": ("sample degrees for order < dim (NON-EXHAUSTIVE)", _scan_open_problem_args, cmd_scan_open_problem),
}


@functools.cache  # built once per process; main only reads it
def _command_parser(command: str) -> argparse.ArgumentParser:
    """The one parser of a command's arguments, defaults and help."""
    _, add_args, handler = _COMMANDS[command]
    p = argparse.ArgumentParser(prog=f"primdeg {command}")
    add_args(p)
    p.set_defaults(func=handler)
    return p


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser, which lists the five commands without their
    arguments: all that ``--help``, a missing command and an unknown one read."""
    parser = argparse.ArgumentParser(
        prog="primdeg",
        description="Primitivity and primitive degrees of nonnegative tensors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, _, _) in _COMMANDS.items():
        sub.add_parser(command, help=help_text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        # the top-level parser exits on --help and on usage errors; it returns
        # only a command that argv names later, which then parses what follows it
        command = argv[0] if argv and argv[0] in _COMMANDS else build_parser().parse_args(argv).command
        args = _command_parser(command).parse_args(argv[argv.index(command) + 1:])
    except SystemExit as e:
        # argparse exits 2 on usage errors; that slot is reserved for
        # verification failures, so usage problems become input errors.
        return 0 if e.code in (0, None) else 1
    start = time.perf_counter()
    try:
        code = args.func(args)
    except VerificationError as e:
        print(f"verification failure: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except Exception:
        import traceback  # only here, so that start-up does not load it
        traceback.print_exc()
        return 3
    finally:
        elapsed = time.perf_counter() - start
        print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
