"""Command-line driver: simulate | fit | filter | compare | plotdata | validate.

Every run writes a machine-readable result, a human-readable ``.summary.txt``,
and a ``.manifest.json`` recording the flags, seed, and SHA-256 of each input
file, so any output can be reproduced from its manifest.  Outputs, the
simulated dataset included, are written atomically (temp file + rename).
Model, scenario and template files are read by
:func:`~emastate.model.from_document`, so every malformed input file is a
typed error.  Exit codes: 0 success, 2 validation error, 3 numerical
failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field

from . import dataio
from .errors import IO_CODES, NUMERICAL_CODES, EmaError
from .estimate import FitOptions, ParameterMap, fit, fit_candidates, rank_fits
from .filtering import _cohort, particle_filter
# perfbench/spans.py wraps the two Kalman filters where this module binds them
from .filtering import kalman_filter, kalman_filter_ct  # noqa: F401
from .figures import columns_to_delimited, figure_series
from .model import (ModelSpec, from_document, non_finite_matrices, read_document, require_valid,
                    validate_model)
from .simulate import run_scenario, scenario_from_dict


def _exit_code(err: EmaError) -> int:
    if err.code in IO_CODES:
        return 4
    if err.code in NUMERICAL_CODES:
        return 3
    return 2


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
    except FileNotFoundError:
        raise EmaError("FILE_NOT_FOUND", f"no such file: {path}")
    return h.hexdigest()


def _write_manifest(out_path: str, command: str, args: argparse.Namespace,
                    input_flags: list[str]) -> None:
    flags = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    manifest = {
        "command": command,
        "flags": flags,
        "seed": getattr(args, "seed", None),
        "inputs": {},
    }
    for flag in input_flags:
        value = getattr(args, flag)
        paths = value if isinstance(value, list) else [value]
        manifest["inputs"][flag] = [{"path": p, "sha256": _sha256(p)} for p in paths]
    dataio.atomic_write(f"{out_path}.manifest.json",
                        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


@dataclass(frozen=True)
class _Template:
    """A template file: the model and the statuses of its entries."""

    model: ModelSpec
    parameters: ParameterMap = field(default_factory=ParameterMap)


def _load_template(path: str) -> tuple[ModelSpec, ParameterMap]:
    t = from_document(_Template, read_document(path, "template"), "template",
                      model=ModelSpec.from_dict, parameters=ParameterMap.from_dict)
    return t.model, t.parameters


def _report(args, summary: str, inputs: list[str], out=None, text=None) -> int:
    """Every command's last steps: write the result ``text`` (if not yet
    written) to ``out`` (default ``--out``), then its summary and manifest,
    and echo the summary."""
    out = out or args.out
    if out:
        if text is not None:
            dataio.atomic_write(out, text)
        dataio.atomic_write(f"{out}.summary.txt", summary)
        _write_manifest(out, args.command, args, inputs)
    print(summary, end="")
    return 0


def _fit_options(args: argparse.Namespace) -> FitOptions:
    return FitOptions(
        n_restarts=args.restarts, max_iter=args.max_iter, tol=args.tol,
        likelihood=args.likelihood, n_particles=args.particles,
        particle_seed=args.seed, seed=args.seed)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_simulate(args) -> int:
    spec = ModelSpec.load(args.model)
    scenario = scenario_from_dict(read_document(args.scenario, "scenario"))
    if args.seed is None:               # --seed wins over the scenario's own
        if scenario.seed is None:
            raise EmaError("BAD_SCENARIO", "no seed: pass --seed or set the scenario's 'seed'")
        args.seed = scenario.seed       # so the summary and manifest record it
    data = run_scenario(spec, scenario, args.seed)
    dataio.write_dataset(data, args.out)
    total = sum(p.n_pings for p in data.participants)
    miss = sum(int(p.missing.sum()) for p in data.participants)
    cells = total * data.n_obs
    summary = (
        f"simulate: wrote {args.out}\n"
        f"participants: {data.n_participants}\n"
        f"pings total: {total}\n"
        f"channels: {', '.join(data.y_names)}\n"
        f"missing cells: {miss} of {cells} ({miss / max(cells, 1):.1%})\n"
        f"seed: {args.seed}\n")
    return _report(args, summary, ["model", "scenario"])


def _cmd_fit(args) -> int:
    template, pmap = _load_template(args.template)
    data = dataio.read_dataset(args.data)
    if args.likelihood == "particle" and template.all_gaussian:
        print("warning: all channels are Gaussian; the exact kalman likelihood "
              "would be faster and noise-free", file=sys.stderr)
    options = _fit_options(args)
    result = fit(template, pmap, data, mode=args.mode, options=options)
    results = [result] if args.mode == "pooled" else result
    payload = {"mode": args.mode, "results": [r.to_dict() for r in results]}
    lines = [f"fit: wrote {args.out}", f"mode: {args.mode}",
             f"likelihood: {args.likelihood}", f"free parameters: {results[0].n_free}"]
    for r in results:
        who = r.participant or "pooled"
        lines.append(f"{who}: loglik={r.log_likelihood:.6g} aic={r.aic:.6g} "
                     f"bic={r.bic:.6g} converged={r.converged}")
    return _report(args, "\n".join(lines) + "\n", ["data", "template"],
                   text=json.dumps(payload, indent=2) + "\n")


def _cmd_filter(args) -> int:
    spec = ModelSpec.load(args.model)
    require_valid(spec)
    data = dataio.read_dataset(args.data)
    use_particle = args.method == "particle" or (
        args.method == "auto" and not spec.all_gaussian)
    if use_particle and args.seed is None:
        raise EmaError("BAD_SCENARIO", "--seed is mandatory for the particle filter")
    if use_particle:        # per participant: perfbench/spans.py times this binding
        results = (particle_filter(spec, p.Y, args.particles, args.seed, p.missing,
                                   p.U, p.timestamps) for p in data.participants)
    else:
        results = (r for r, _ in _cohort(spec, data.participants))
    blocks = []
    total_ll = 0.0
    for p, r in zip(data.participants, results):
        total_ll += r.log_likelihood
        rows = r.to_delimited(data.y_names).splitlines()
        if not blocks:
            blocks.append("participant_id," + rows[0])
        blocks.extend(f"{p.pid},{row}" for row in rows[1:])
    summary = (f"filter: wrote {args.out}\n"
               f"method: {'particle' if use_particle else 'kalman'}\n"
               f"participants: {data.n_participants}\n"
               f"total log-likelihood: {total_ll:.6g}\n")
    return _report(args, summary, ["data", "model"], text="\n".join(blocks) + "\n")


def _cmd_compare(args) -> int:
    data = dataio.read_dataset(args.data)
    labels = [os.path.splitext(os.path.basename(path))[0] for path in args.templates]
    fits = fit_candidates(((*_load_template(path), data) for path in args.templates),
                          _fit_options(args))
    table = rank_fits(labels, fits)
    lines = [f"compare: wrote {args.out}",
             f"candidates: {len(labels)} (full table reported)"]
    for r in table.rows:
        marks = [m for m, rank in (("best AIC", r.rank_aic), ("best BIC", r.rank_bic))
                 if rank == 1]
        suffix = f"  <- {', '.join(marks)}" if marks else ""
        lines.append(f"{r.model_id}: aic={r.aic:.6g} bic={r.bic:.6g}{suffix}")
    return _report(args, "\n".join(lines) + "\n", ["data", "templates"],
                   text=table.to_delimited())


def _cmd_plotdata(args) -> int:
    cols = figure_series(args.figure, args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, f"{args.figure}.csv")
    summary = (f"plotdata: wrote {out_file}\n"
               f"figure: {args.figure}\n"
               f"series: {', '.join(cols)}\n"
               f"rows: {len(next(iter(cols.values())))}\n"
               f"seed: {args.seed}\n")
    return _report(args, summary, [], out=out_file, text=columns_to_delimited(cols))


def _cmd_validate(args) -> int:
    spec = ModelSpec.load(args.model)
    report = validate_model(spec)
    # the library leaves non-finite entries to the filters; a model file should not pass
    non_finite = [("NON_FINITE", f"{name} has a non-finite entry")
                  for name in non_finite_matrices(spec)]
    report.errors[:0] = non_finite
    lines = [f"validate: {args.model}",
             f"errors: {len(report.errors)}", f"warnings: {len(report.warnings)}"]
    for code, msg in report.errors:
        lines.append(f"error {code}: {msg}")
    for code, msg in report.warnings:
        lines.append(f"warning {code}: {msg}")
    _report(args, "\n".join(lines) + "\n", ["model"],
            text=json.dumps(report.to_dict(), indent=2) + "\n")
    return 3 if non_finite else 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emastate",
        description="Simulate, filter, fit, and compare state-space models "
                    "for EMA time series.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a dataset from a model and scenario")
    p.add_argument("--model", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="default: the scenario's 'seed'")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("fit", help="maximum-likelihood fit of a template to data")
    p.add_argument("--data", required=True)
    p.add_argument("--template", required=True)
    p.add_argument("--mode", choices=["idiographic", "pooled"], default="pooled")
    p.add_argument("--likelihood", choices=["kalman", "particle"], default="kalman")
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--particles", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("filter", help="state estimation for a known model")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=["auto", "kalman", "particle"], default="auto")
    p.add_argument("--particles", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_filter)

    p = sub.add_parser("compare", help="AIC/BIC table over candidate templates")
    p.add_argument("--data", required=True)
    p.add_argument("--templates", nargs="+", required=True)
    p.add_argument("--likelihood", choices=["kalman", "particle"], default="kalman")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=200)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--particles", type=int, default=2000)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plotdata", help="emit figure-reproduction series")
    p.add_argument("--figure", required=True,
                   help="one of fig1a, fig1b, fig3a, fig3b, fig3c")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=_cmd_plotdata)

    p = sub.add_parser("validate", help="check a model file against the invariants")
    p.add_argument("--model", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except EmaError as err:
        print(f"error {err.code}: {err.message}", file=sys.stderr)
        return _exit_code(err)


if __name__ == "__main__":
    sys.exit(main())
