"""Command-line driver: simulate | fit | filter | compare | plotdata | validate.

Every run writes a machine-readable result, a human-readable ``.summary.txt``,
and a ``.manifest.json`` recording the flags, seed, and SHA-256 of each input
file, so any output can be reproduced from its manifest.  Outputs are written
atomically (temp file + rename).  Exit codes: 0 success, 2 validation error,
3 numerical failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import dataio
from .errors import IO_CODES, NUMERICAL_CODES, EmaError
from .estimate import FitOptions, ParameterMap, fit, rank_fits
from .filtering import _kalman_cohort, particle_filter
# perfbench/spans.py wraps the two Kalman filters where this module binds them
from .filtering import kalman_filter, kalman_filter_ct  # noqa: F401
from .figures import columns_to_delimited, figure_series
from .model import ModelSpec, validate_model
from .simulate import run_scenario, scenario_from_dict


def _exit_code(err: EmaError) -> int:
    if err.code in IO_CODES:
        return 4
    if err.code in NUMERICAL_CODES:
        return 3
    return 2


def _atomic_write(path: str, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


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
    _atomic_write(f"{out_path}.manifest.json",
                  json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise EmaError("FILE_NOT_FOUND", f"no such {what} file: {path}")
    except json.JSONDecodeError as exc:
        raise EmaError("PARSE_ERROR", f"{path}: {exc}")


def _load_template(path: str) -> tuple[ModelSpec, ParameterMap]:
    d = _load_json(path, "template")
    unknown = set(d) - {"model", "parameters"}
    if unknown:
        raise EmaError("UNKNOWN_KEY", f"unknown template keys: {sorted(unknown)}")
    if "model" not in d:
        raise EmaError("PARSE_ERROR", f"{path}: template needs a 'model' section")
    return ModelSpec.from_dict(d["model"]), ParameterMap.from_dict(d.get("parameters", {}))


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
    scenario = scenario_from_dict(_load_json(args.scenario, "scenario"))
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
    _atomic_write(f"{args.out}.summary.txt", summary)
    _write_manifest(args.out, "simulate", args, ["model", "scenario"])
    print(summary, end="")
    return 0


def _cmd_fit(args) -> int:
    template, pmap = _load_template(args.template)
    data = dataio.read_dataset(args.data)
    if args.likelihood == "particle" and template.all_gaussian:
        print("warning: all channels are Gaussian; the exact kalman likelihood "
              "would be faster and noise-free", file=sys.stderr)
    options = _fit_options(args)
    result = fit(template, pmap, data, mode=args.mode, options=options)
    if args.mode == "pooled":
        payload = {"mode": "pooled", "results": [result.to_dict()]}
        results = [result]
    else:
        payload = {"mode": "idiographic", "results": [r.to_dict() for r in result]}
        results = result
    _atomic_write(args.out, json.dumps(payload, indent=2) + "\n")
    lines = [f"fit: wrote {args.out}", f"mode: {args.mode}",
             f"likelihood: {args.likelihood}", f"free parameters: {results[0].n_free}"]
    for r in results:
        who = r.participant or "pooled"
        lines.append(f"{who}: loglik={r.log_likelihood:.6g} aic={r.aic:.6g} "
                     f"bic={r.bic:.6g} converged={r.converged}")
    summary = "\n".join(lines) + "\n"
    _atomic_write(f"{args.out}.summary.txt", summary)
    _write_manifest(args.out, "fit", args, ["data", "template"])
    print(summary, end="")
    return 0


def _cmd_filter(args) -> int:
    spec = ModelSpec.load(args.model)
    data = dataio.read_dataset(args.data)
    use_particle = args.method == "particle" or (
        args.method == "auto" and not spec.all_gaussian)
    if use_particle and args.seed is None:
        raise EmaError("BAD_SCENARIO", "--seed is mandatory for the particle filter")
    if use_particle:
        results = (particle_filter(spec, p.Y, args.particles, args.seed, p.missing,
                                   p.U, p.timestamps) for p in data.participants)
    else:
        results = _kalman_cohort(spec, data.participants)
    blocks = []
    total_ll = 0.0
    for p, r in zip(data.participants, results):
        total_ll += r.log_likelihood
        table = r.to_delimited(data.y_names)
        rows = table.splitlines()
        if not blocks:
            blocks.append("participant_id," + rows[0])
        blocks.extend(f"{p.pid},{row}" for row in rows[1:])
    _atomic_write(args.out, "\n".join(blocks) + "\n")
    summary = (f"filter: wrote {args.out}\n"
               f"method: {'particle' if use_particle else 'kalman'}\n"
               f"participants: {data.n_participants}\n"
               f"total log-likelihood: {total_ll:.6g}\n")
    _atomic_write(f"{args.out}.summary.txt", summary)
    _write_manifest(args.out, "filter", args, ["data", "model"])
    print(summary, end="")
    return 0


def _cmd_compare(args) -> int:
    data = dataio.read_dataset(args.data)
    labels, fits = [], []
    for path in args.templates:
        template, pmap = _load_template(path)
        options = _fit_options(args)
        labels.append(os.path.splitext(os.path.basename(path))[0])
        fits.append(fit(template, pmap, data, mode="pooled", options=options))
    table = rank_fits(labels, fits)
    _atomic_write(args.out, table.to_delimited())
    lines = [f"compare: wrote {args.out}",
             f"candidates: {len(labels)} (full table reported)"]
    for r in table.rows:
        marks = []
        if r.rank_aic == 1:
            marks.append("best AIC")
        if r.rank_bic == 1:
            marks.append("best BIC")
        suffix = f"  <- {', '.join(marks)}" if marks else ""
        lines.append(f"{r.model_id}: aic={r.aic:.6g} bic={r.bic:.6g}{suffix}")
    summary = "\n".join(lines) + "\n"
    _atomic_write(f"{args.out}.summary.txt", summary)
    _write_manifest(args.out, "compare", args, ["data", "templates"])
    print(summary, end="")
    return 0


def _cmd_plotdata(args) -> int:
    cols = figure_series(args.figure, args.seed)
    os.makedirs(args.out, exist_ok=True)
    out_file = os.path.join(args.out, f"{args.figure}.csv")
    _atomic_write(out_file, columns_to_delimited(cols))
    summary = (f"plotdata: wrote {out_file}\n"
               f"figure: {args.figure}\n"
               f"series: {', '.join(cols)}\n"
               f"rows: {len(next(iter(cols.values())))}\n"
               f"seed: {args.seed}\n")
    _atomic_write(f"{out_file}.summary.txt", summary)
    _write_manifest(out_file, "plotdata", args, [])
    print(summary, end="")
    return 0


def _cmd_validate(args) -> int:
    spec = ModelSpec.load(args.model)
    report = validate_model(spec)
    payload = json.dumps(report.to_dict(), indent=2) + "\n"
    lines = [f"validate: {args.model}",
             f"errors: {len(report.errors)}", f"warnings: {len(report.warnings)}"]
    for code, msg in report.errors:
        lines.append(f"error {code}: {msg}")
    for code, msg in report.warnings:
        lines.append(f"warning {code}: {msg}")
    summary = "\n".join(lines) + "\n"
    if args.out:
        _atomic_write(args.out, payload)
        _atomic_write(f"{args.out}.summary.txt", summary)
        _write_manifest(args.out, "validate", args, ["model"])
    print(summary, end="")
    return 0 if report.ok else 2


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
    p.add_argument("--seed", type=int, required=True)
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
