"""Command-line interface.

Subcommands:
  run       execute an experiment described by a JSON config plus overrides
  pattern   fixed-location beam-pattern readout
  codebook  export the polar codebook grid as CSV
  selftest  run the module invariant suite

Angles are accepted in degrees at this boundary only; the library works in
radians.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .codebook import codebook_grid, export_codebook_csv
from .harness import (
    SWEEP_AXES,
    ExperimentSpec,
    run_beam_pattern,
    run_experiment,
    spec_from_dict,
)
from .selftest import run_selftest


def _float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}") from exc


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad list {text!r}") from exc


def _load_spec(path: str | None, default_experiment: str) -> ExperimentSpec:
    if path is None:
        return ExperimentSpec(experiment=default_experiment)
    with open(path) as fh:
        doc = json.load(fh)
    return spec_from_dict(doc)


def _apply_overrides(spec: ExperimentSpec, args) -> ExperimentSpec:
    if getattr(args, "seed", None) is not None:
        spec = replace(spec, base_seed=args.seed)
    if getattr(args, "trials", None) is not None:
        spec = replace(spec, trials=args.trials)
    # each list flag and the spec field it sets; the flag's argparse dest is the field
    for flag, name in (("--snr-db", "snr_db"), ("--nbs", "n_bs"), ("--k", "k")):
        values = getattr(args, name, None)
        if values is None:
            continue
        if name in SWEEP_AXES[spec.experiment].fields:
            spec = replace(spec, sweep=values)
        elif len(values) == 1:
            spec = replace(spec, **{name: values[0]})
        else:
            raise ValueError(f"{flag} takes one value unless {spec.experiment} sweeps {name}")
    return spec


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _cmd_run(args) -> int:
    spec = _apply_overrides(_load_spec(args.config, "sumrate-vs-snr"), args)
    table = run_experiment(spec)
    _emit(table.to_json() + "\n" if args.format == "json" else table.to_csv(), args.out)
    return 0


def _cmd_pattern(args) -> int:
    spec = _apply_overrides(_load_spec(args.config, "beam-pattern"), args)
    result = run_beam_pattern(spec)
    text = result.to_csv()
    if args.out is not None:
        _emit(text, args.out)
    print(result.gain_table())
    return 0


def _cmd_codebook(args) -> int:
    if args.out is None:
        raise ValueError("codebook export needs --out")
    spec = _apply_overrides(_load_spec(args.config, "sumrate-vs-snr"), args)
    # the export writes the grid alone, so no sweep basis is built
    cb = codebook_grid(spec.array_config(), spec.n_dis, spec.beta)
    export_codebook_csv(cb, args.out)
    print(f"wrote {cb.array.n_bs * cb.n_dis} codewords to {args.out}")
    return 0


def _cmd_selftest(args) -> int:
    results = run_selftest(seed=args.seed if args.seed is not None else 0)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _add_common(sp, *names) -> None:
    if "config" in names:
        sp.add_argument("--config", help="JSON experiment config")
    if "seed" in names:
        sp.add_argument("--seed", type=int, help="base RNG seed")
    if "trials" in names:
        sp.add_argument("--trials", type=int, help="Monte Carlo trials")
    if "out" in names:
        sp.add_argument("--out", help="output path (default: stdout)")
    if "format" in names:
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
    # only the list flags a subcommand reads: an ignored one is a usage error
    if "snr_db" in names:
        sp.add_argument("--snr-db", type=_float_list, help="comma-separated SNR values (dB)")
    if "n_bs" in names:
        sp.add_argument("--nbs", dest="n_bs", type=_int_list, help="comma-separated antenna counts")
    if "k" in names:
        sp.add_argument("--k", type=_int_list, help="comma-separated user counts")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nfbf", description="near-field beamforming simulation harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("run", help="run a sweep experiment")
    _add_common(sp, "config", "seed", "trials", "out", "format", "snr_db", "n_bs", "k")
    sp.set_defaults(fn=_cmd_run)

    sp = sub.add_parser("pattern", help="fixed-location beam patterns")
    _add_common(sp, "config", "seed", "out", "snr_db", "n_bs")
    sp.set_defaults(fn=_cmd_pattern)

    sp = sub.add_parser("codebook", help="export the polar codebook")
    _add_common(sp, "config", "out", "n_bs")
    sp.set_defaults(fn=_cmd_codebook)

    sp = sub.add_parser("selftest", help="run the invariant suite")
    _add_common(sp, "seed")
    sp.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
