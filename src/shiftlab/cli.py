"""Batch experiment runner.

`shiftlab run config.json` executes every run in the document and writes
one output file per run plus a summary table; `validate` checks a document
without running it; `list-builtins` prints the built-in catalog.  The
document is parsed and each run checked by `config`; the entries it names
come from `corpus` catalogs, which one RunContext per document shares
between its runs.  Each handler loads the layers it calls when
it first runs, so a document loads only the layers its runs use.  One
line per written file and per failure goes to standard error, data to
files and standard output, and repeated runs of one configuration
produce byte-identical output trees.

`main` reads its command line itself (USAGE, `_parse_args`) rather than
through argparse, which with gettext and locale cost a measurable share
of every process's start-up; `csv` loads on the first CSV written.  A
malformed command line prints USAGE and an error to standard error and
exits 2, and -h prints USAGE to standard output and exits 0.
"""

from __future__ import annotations

import io
import re
import sys
from collections import Counter
from pathlib import Path

from .audit import (
    VIOLATION,
    entropy_bound_audit,
    polynomial_bound_audit,
    range_vs_wordlength_audit,
    sigma_power_range_audit,
)
from .config import (
    OPERATION_PARAMS,
    Budgets,
    ExperimentConfig,
    RunSpec,
    check_run,
    named_entries,
    parse_config,
)
from .corpus import (
    BUILTIN_NAMES,
    CODE_KINDS,
    Catalog,
    builtin_codes,
    builtin_groups,
    builtin_shifts,
)
from .errors import BudgetExceededError, ConfigError, record, replace

SUMMARY_HEADER = ("name", "operation", "result", "verdict")


# -- run context ---------------------------------------------------------------


class RunContext:
    """Catalogs for one document: built-in and document entries, each built
    by name on first use and shared by every run that names it, so a bad
    entry fails only the runs that use it.  After each run, `release` drops
    every built entry that no later run names."""

    def __init__(self, config: ExperimentConfig, base_dir: Path):
        self.budgets = config.budgets
        shifts = builtin_shifts(config.shifts)
        self._catalogs = {
            "shifts": shifts,
            "codes": builtin_codes(shifts, config.codes, base_dir, self.budgets.table_rows),
            "groups": builtin_groups(config.groups),
        }
        # (section, name) -> how many runs yet to end name that entry
        self._pending = Counter(
            entry for run in config.runs for entry in named_entries(run, self._catalogs)
        )

    @property
    def shifts(self) -> Catalog:
        return self._catalogs["shifts"]

    @property
    def codes(self) -> Catalog:
        return self._catalogs["codes"]

    @property
    def groups(self) -> Catalog:
        return self._catalogs["groups"]

    def release(self, run: RunSpec) -> None:
        """End `run`: drop every built entry that no later run names.  A
        built code holds its own domain, so what it needs stays alive."""
        self._pending.subtract(named_entries(run, self._catalogs))
        for section, catalog in self._catalogs.items():
            catalog.keep(lambda name: self._pending[section, name] > 0)


# -- output helpers --------------------------------------------------------------


def _csv_text(header, rows) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _record_text(pairs) -> str:
    return "".join(f"{key}: {value}\n" for key, value in pairs)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "none"
    return str(value)


@record
class RunResult:
    """What one run produced: file content plus its summary row."""

    key: str
    verdict: str
    extension: str
    body: str


# -- shift operations --------------------------------------------------------------


def _op_complexity(budgets: Budgets, shift, depth) -> RunResult:
    from .shiftlang import entropy_profile

    prof = entropy_profile(shift, depth)
    rows = [
        (n, p, repr(est))
        for n, (p, est) in enumerate(zip(prof.values, prof.entropy_estimates), 1)
    ]
    return RunResult(
        repr(prof.entropy_upper_estimate), "ok",
        "csv", _csv_text(("n", "P", "entropy_estimate"), rows),
    )


def _op_morse_hedlund(budgets: Budgets, shift, limit) -> RunResult:
    from .shiftlang import morse_hedlund_test

    verdict = morse_hedlund_test(shift, limit)
    body = _record_text(
        (
            ("test", "morse_hedlund"),
            ("limit", verdict.limit),
            ("witness", _fmt(verdict.witness)),
            ("certifies_periodic", _fmt(verdict.certifies_periodic)),
        )
    )
    return RunResult(_fmt(verdict.witness), "ok", "txt", body)


def _op_special_words(budgets: Budgets, shift, length, side) -> RunResult:
    from .blockcode import check_words
    from .shiftlang import special_words

    check_words(shift, length + 1, budgets.table_rows, "words", "special_words")
    words = special_words(shift, length, side)
    body = _record_text((("side", side), ("length", length), ("count", len(words))))
    body += "".join(f"{w}\n" for w in words)
    return RunResult(str(len(words)), "ok", "txt", body)


# -- code operations ----------------------------------------------------------------


def _op_range_profile(budgets: Budgets, code, depth) -> RunResult:
    from fractions import Fraction

    from .blockcode import range_profile

    prof = range_profile(code, depth, budgets.table_rows)
    rows = [
        (n, r, str(Fraction(r, n)))
        for n, r in enumerate(prof.entries, 1)
    ]
    verdict = "ok"
    if prof.truncated_at is not None:
        verdict = f"partial: table budget reached at power {prof.truncated_at}"
    return RunResult(
        prof.classification, verdict,
        "csv", _csv_text(("n", "min_range", "ratio"), rows),
    )


def _op_minimal_range(budgets: Budgets, code) -> RunResult:
    from .blockcode import minimal_range

    r = minimal_range(code)
    body = _record_text(
        (("declared_range", code.radius), ("minimal_range", r))
    )
    return RunResult(str(r), "ok", "txt", body)


def _op_inverse_search(budgets: Budgets, code, radius_cap) -> RunResult:
    from .blockcode import inverse_search

    found = inverse_search(code, radius_cap, budgets.table_rows)
    pairs = [("radius_cap", radius_cap)]
    if found is None:
        pairs.append(("inverse", "none"))
        key = "none"
    else:
        pairs.append(("inverse_radius", found.radius))
        key = f"radius {found.radius}"
    return RunResult(key, "ok", "txt", _record_text(pairs))


def _op_endomorphism_check(budgets: Budgets, code) -> RunResult:
    from .blockcode import endomorphism_check

    ok = endomorphism_check(code)
    return RunResult(_fmt(ok), "ok", "txt", _record_text((("endomorphism", _fmt(ok)),)))


# -- spacetime operations --------------------------------------------------------------


def _op_rectangle_complexity(budgets: Budgets, shift, code, cols, rows) -> RunResult:
    from .spacetime import rectangle_counts

    counts = rectangle_counts(shift, code, cols, rows, budgets.table_rows)
    table = [(n, k, count) for (n, k), count in counts.items()]
    return RunResult(
        str(counts[cols, rows]), "ok", "csv", _csv_text(("n", "k", "count"), table)
    )


def _op_cyr_kra(budgets: Budgets, shift, code, length, height) -> RunResult:
    from .spacetime import build_patches, cyr_kra_audit

    patches = build_patches(shift, code, length, height, budgets.table_rows)
    verdict = cyr_kra_audit(patches, length, height)
    pairs = [
        ("status", verdict.status),
        ("patch_count", verdict.patch_count),
        ("threshold_doubled", verdict.threshold_doubled),
        ("vector", _fmt(verdict.vector)),
    ]
    return RunResult(verdict.status, "ok", "txt", _record_text(pairs))


def _op_vertical_period(budgets: Budgets, shift, code, length, height) -> RunResult:
    from .spacetime import build_patches, uniform_vertical_period

    patches = build_patches(shift, code, length, height, budgets.table_rows)
    period = uniform_vertical_period(patches)
    return RunResult(
        _fmt(period), "ok", "txt", _record_text((("vertical_period", _fmt(period)),))
    )


def _op_coding_check(
    budgets: Budgets, shift, code, length, height, cells_a, cells_b
) -> RunResult:
    from .spacetime import build_patches, coding_check

    patches = build_patches(shift, code, length, height, budgets.table_rows)
    codes = coding_check(patches, cells_a, cells_b)
    return RunResult(
        _fmt(codes), "ok", "txt", _record_text((("codes", _fmt(codes)),))
    )


# -- group operations ---------------------------------------------------------------


def _op_ball_growth(budgets: Budgets, group, radius) -> RunResult:
    from .grouplab import ball_growth

    model, gens = group
    growth = ball_growth(model, gens, radius, budgets.bfs_states)
    rows = list(enumerate(growth.sizes))
    key = f"degree {growth.fitted_degree!r} superpolynomial {_fmt(growth.superpolynomial)}"
    return RunResult(key, "ok", "csv", _csv_text(("r", "size"), rows))


def _op_word_length(budgets: Budgets, group, element, radius) -> RunResult:
    from .grouplab import bfs_word_length

    model, gens = group
    g = element.evaluate(model, gens.binding())
    length = bfs_word_length(model, gens, g, radius, budgets.bfs_states)
    body = _record_text(
        (("element", str(element)), ("radius", radius), ("length", _fmt(length)))
    )
    return RunResult(_fmt(length), "ok", "txt", body)


def _word_profile(budgets: Budgets, group, element, depth, radius):
    from .grouplab import auto_certifier, distortion_profile

    model, gens = group
    return distortion_profile(
        model, gens, element.evaluate(model, gens.binding()), depth,
        radius_max=radius,
        state_budget=budgets.bfs_states,
        certifier=auto_certifier(model, element),
    )


def _op_distortion(budgets: Budgets, **params) -> RunResult:
    prof = _word_profile(budgets, **params)
    rows = [(e.n, "" if e.value is None else e.value, e.kind) for e in prof.entries]
    return RunResult(
        prof.trend_class, "ok",
        "csv", _csv_text(("n", "length", "exact_or_bound"), rows),
    )


def _op_certificate(budgets: Budgets, kind, **params) -> RunResult:
    from .grouplab import named_certificate

    word, model, target, bound = named_certificate(kind, **params)
    value = word.evaluate(model, model.generators())
    if value != target:
        raise ValueError(f"certificate evaluates to {value!r}, expected {target!r}")
    # the kind's parameters arrive in their OPERATION_PARAMS order
    pairs = [("kind", kind), *params.items(), ("word", str(word)), ("length", word.length)]
    if bound is not None:
        pairs.append(("length_bound", bound))
    pairs.append(("verified", "true"))
    return RunResult(str(word.length), "ok", "txt", _record_text(pairs))


def _op_growth_formula(
    budgets: Budgets, formula, ranks=None, step=None, complexity_exponent=None
) -> RunResult:
    from .grouplab import bass_guivarch_degree, embedding_step_bound, min_growth_degree

    if formula == "bass_guivarch":
        value = bass_guivarch_degree(ranks)
        pairs = [("formula", formula), ("ranks", " ".join(map(str, ranks)))]
    elif formula == "min_growth_degree":
        value = min_growth_degree(step)
        pairs = [("formula", formula), ("step", step)]
    else:
        value = embedding_step_bound(complexity_exponent)
        pairs = [("formula", formula), ("complexity_exponent", complexity_exponent)]
    pairs.append(("value", value))
    return RunResult(str(value), "ok", "txt", _record_text(pairs))


# -- audit operations ----------------------------------------------------------------


def _range_input(budgets: Budgets, range_entries=None, code=None, depth_range=None):
    """The checked literal profile, else the code's measured profile."""
    from .blockcode import range_profile

    if range_entries is not None:
        return range_entries
    return range_profile(code, depth_range, budgets.table_rows)


def _report_result(report) -> RunResult:
    return RunResult(report.verdict, report.verdict, "txt", report.to_text())


def _op_audit_range_word(
    budgets: Budgets, group, element, depth, codes, radius,
    range_entries=None, element_code=None,
) -> RunResult:
    from .blockcode import range_profile

    # the audit reads only each generator's first entry, r(phi) itself
    generator_profiles = {
        label: range_profile(code, 1, budgets.table_rows)
        for label, code in codes.items()
    }
    element_profile = _range_input(budgets, range_entries, element_code, depth)
    words = _word_profile(budgets, group, element, depth, radius)
    return _report_result(
        range_vs_wordlength_audit(generator_profiles, element_profile, words)
    )


def _op_audit_entropy(budgets: Budgets, shift, depth_complexity, **source) -> RunResult:
    from .shiftlang import entropy_profile

    prof = _range_input(budgets, **source)
    complexity = entropy_profile(shift, depth_complexity)
    return _report_result(entropy_bound_audit(prof, complexity))


def _op_audit_polynomial(
    budgets: Budgets, shift, depth, root, require_sublinear, **source
) -> RunResult:
    from .shiftlang import entropy_profile

    prof = _range_input(budgets, **source)
    complexity = entropy_profile(shift, depth)
    report = polynomial_bound_audit(
        prof, complexity, depth, root=root, require_sublinear=require_sublinear
    )
    return _report_result(report)


def _op_audit_shift_power(budgets: Budgets, shift, exponent, depth) -> RunResult:
    report = sigma_power_range_audit(exponent, shift, depth, budgets.table_rows)
    return _report_result(report)


# the handler of operation X is _op_X; it takes the run's budgets and, by
# keyword, the parameters that config.check_run returns
OPERATIONS = {name: globals()[f"_op_{name}"] for name in OPERATION_PARAMS}


# -- execution ---------------------------------------------------------------------

# what `run` reports as a run's error row and `validate` as its one line:
# ConfigError is a ValueError, IllegalWindowError a LookupError, and an
# ArithmeticError is, say, a float overflow while fitting huge literal entries
RUN_ERRORS = (BudgetExceededError, ValueError, LookupError, ArithmeticError)


def _execute_run(ctx: RunContext, out_dir: Path, run: RunSpec) -> RunResult:
    """Execute one run on the document's context, write its file to
    out_dir, then release what no later run names."""
    try:
        result = OPERATIONS[run.operation](ctx.budgets, **check_run(run, ctx))
    except RUN_ERRORS as exc:
        print(f"run {run.name}: {exc}", file=sys.stderr)
        result = RunResult("-", f"error: {exc}", "txt", "")
    ctx.release(run)
    if result.body:
        path = out_dir / f"{run.name}.{result.extension}"
        path.write_text(result.body)
        print(f"run {run.name} -> {path}", file=sys.stderr)
    return result


def execute_config(config: ExperimentConfig, base_dir: Path) -> tuple[int, str]:
    """Run every run spec on one RunContext; returns (exit status, summary
    CSV text).

    Output files land in config.out_dir.  The exit status is nonzero
    exactly when some run errored or an audit on non-fabricated data
    reported a Violation.
    """
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = RunContext(config, base_dir)

    failed = False
    rows = []
    for run in config.runs:
        result = _execute_run(ctx, out_dir, run)
        rows.append((run.name, run.operation, result.key, result.verdict))
        if result.verdict.startswith("error"):
            failed = True
        elif result.verdict == VIOLATION and not run.fabricated:
            print(f"run {run.name}: Violation on non-fabricated data", file=sys.stderr)
            failed = True

    summary = _csv_text(SUMMARY_HEADER, rows)
    (out_dir / "summary.csv").write_text(summary)
    return (1 if failed else 0), summary


# -- commands ------------------------------------------------------------------------


def _load_config(path: Path) -> tuple[ExperimentConfig, Path]:
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read configuration {path}: {exc}") from exc
    return parse_config(text, BUILTIN_NAMES), path.resolve().parent


def _cmd_run(path: str, out_dir: str | None) -> int:
    config, base_dir = _load_config(Path(path))
    if out_dir is not None:
        config = replace(config, out_dir=out_dir)
    status, summary = execute_config(config, base_dir)
    sys.stdout.write(summary)
    return status


def _cmd_validate(path: str, _out_dir: None) -> int:
    config, base_dir = _load_config(Path(path))
    ctx = RunContext(config, base_dir)
    # building the document's entries surfaces bad element specs, and
    # check_run builds the built-in entries a run uses
    for catalog, names in (
        (ctx.shifts, config.shifts), (ctx.codes, config.codes), (ctx.groups, config.groups)
    ):
        for name in names:
            catalog[name]
    for run in config.runs:
        check_run(run, ctx)
    sys.stdout.write(
        f"ok: {len(config.shifts)} shifts, {len(config.codes)} codes, "
        f"{len(config.groups)} groups, {len(config.runs)} runs\n"
    )
    return 0


def _cmd_list_builtins(_path: None, _out_dir: None) -> int:
    lines = []
    for section, names in BUILTIN_NAMES.items():
        lines += [f"{section}:", *(f"  {name}" for name in names)]
        if section == "codes":
            lines.append("code constructors: " + " ".join(CODE_KINDS))
    lines += ["operations:", *(f"  {name}" for name in OPERATIONS)]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


# -- command line ----------------------------------------------------------------

COMMANDS = {"run": _cmd_run, "validate": _cmd_validate, "list-builtins": _cmd_list_builtins}
USAGE = """\
usage: shiftlab run CONFIG [--out-dir DIR]   execute a configuration document
       shiftlab validate CONFIG              check a configuration without running it
       shiftlab list-builtins                print the built-in catalog
"""
# what argparse reads as a negative number, an argument and not an option
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


def _is_option(token: str) -> bool:
    return (
        token.startswith("-") and token not in ("-", "--") and " " not in token
        and not _NEGATIVE_NUMBER.match(token)
    )


def _usage_error(message: str):
    sys.stderr.write(f"{USAGE}shiftlab: error: {message}\n")
    raise SystemExit(2)


def _parse_args(argv) -> tuple[str, str | None, str | None]:
    """(command, CONFIG, DIR) of a command line, read as argparse read USAGE
    before, less option abbreviations.

    Tokens are read in order.  -h or --help prints USAGE and exits 0; an
    unknown command, or --out-dir with no value, is an error at once.  A
    missing command or CONFIG and unrecognized arguments are errors only
    once the line is read, so a later -h still wins.  `--` ends the
    options; it is dropped right before or right after CONFIG, and
    unrecognized anywhere else.  The last --out-dir wins.
    """
    command = config = config_end = out_dir = None
    extras = []
    options = True  # until `--`
    i = 0
    while i < len(argv):
        token = argv[i]
        i += 1
        if options and token in ("-h", "--help"):
            sys.stdout.write(USAGE)
            raise SystemExit(0)
        if command is None:
            if _is_option(token):
                extras.append(token)
            elif token in COMMANDS:
                command = token
            else:
                _usage_error(f"invalid command {token!r} (choose from {', '.join(COMMANDS)})")
            continue
        wants_config = command != "list-builtins" and config is None
        if options and token == "--":
            options = False
            if config_end != i - 1 and not (wants_config and i < len(argv)):
                extras.append(token)
        elif command == "run" and options and token.startswith("--out-dir="):
            out_dir = token.removeprefix("--out-dir=")
        elif command == "run" and options and token == "--out-dir":
            if i == len(argv) or argv[i] == "--" or _is_option(argv[i]):
                _usage_error("argument --out-dir: expected one argument")
            out_dir = argv[i]
            i += 1
        elif options and _is_option(token):
            extras.append(token)
        elif wants_config:
            config, config_end = token, i
        else:
            extras.append(token)
    if command is None:
        _usage_error("the following arguments are required: command")
    if config is None and command != "list-builtins":
        _usage_error("the following arguments are required: CONFIG")
    if extras:
        _usage_error(f"unrecognized arguments: {' '.join(extras)}")
    return command, config, out_dir


def main(argv=None) -> int:
    command, config, out_dir = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return COMMANDS[command](config, out_dir)
    except RUN_ERRORS as exc:
        print(exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
