"""Command-line interface: check, experiment, core, density, catalog."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import harness
from .asymptotics import CoreConfig, InconclusiveCellsError, core
from .ideals import DEFAULT_THETA, empirical_density, exact_density, UnsupportedSetError
from .regularity import (
    CHECKS,
    CheckConfig,
    FamilyMisclassifiedError,
    NegativeEntryError,
    Status,
)
from .sequences import corpus_entry
from .specs import ConfigError, parse_experiment_config, parse_family, parse_ideal, parse_matrix, parse_set

_STATUS_EXIT = {Status.SATISFIED: 0, Status.VIOLATED: 1, Status.INCONCLUSIVE: 2}


def _default_horizon() -> int | None:
    raw = os.environ.get("IDEALCORE_DEFAULT_HORIZON")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise click.ClickException(f"IDEALCORE_DEFAULT_HORIZON: not an integer: {raw!r}")


def _run_config(make, **settings):
    """``make(**settings)``, a run configuration; a value it rejects is a CLI error."""
    try:
        return make(**settings)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _json_arg(raw: str, path: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise click.ClickException(f"{path}: not valid JSON: {exc}")


@click.group()
def main():
    """Ideal cores of bounded sequences and core-preserving matrix checks."""


_horizon = click.option("--horizon", type=int, default=None, help="truncation horizon (env IDEALCORE_DEFAULT_HORIZON)")
_tol = click.option("--tol", type=float, default=1e-2, show_default=True)
_grid = click.option("--grid", type=float, default=1e-2, show_default=True)
_theta = click.option("--theta", type=float, default=DEFAULT_THETA, show_default=True)
_seed = click.option("--seed", type=int, default=0, show_default=True)


def _matrix_arg(raw: str):
    if raw.lstrip().startswith("{"):
        return parse_matrix(_json_arg(raw, "--matrix"))
    return parse_matrix(raw)


def _ideal_arg(raw: str, name: str):
    if raw.lstrip().startswith("{"):
        return parse_ideal(_json_arg(raw, name))
    return parse_ideal(raw)


@main.command()
@click.option("--matrix", required=True, help="matrix name or JSON spec")
@click.option("--ideal-i", default="fin", show_default=True)
@click.option("--ideal-j", default="fin", show_default=True)
@click.option("--theorem", type=click.Choice(list(CHECKS)), required=True)
@click.option("--family", type=click.Path(exists=True), default=None, help="JSON file with family set lists")
@_horizon
@_tol
@_grid
@_theta
@_seed
def check(matrix, ideal_i, ideal_j, theorem, family, horizon, tol, grid, theta, seed):
    """Run a condition checker; exit code 0=satisfied, 1=violated, 2=inconclusive."""
    try:
        a = _matrix_arg(matrix)
        ii = _ideal_arg(ideal_i, "--ideal-i")
        jj = _ideal_arg(ideal_j, "--ideal-j")
        cfg = _run_config(
            CheckConfig, horizon=horizon or _default_horizon() or 10_000, tol=tol, grid=grid, theta=theta, seed=seed
        )
        _run_config(cfg.core_config)  # the checkers' limsup conditions run on it
        fam = parse_family(_json_arg(Path(family).read_text(), "--family")) if family else None
        verdict = CHECKS[theorem](a, ii, jj, family=fam, cfg=cfg)
    except (ConfigError, FamilyMisclassifiedError, NegativeEntryError) as exc:
        raise click.ClickException(str(exc))
    click.echo(harness.dumps(verdict.to_dict()))
    sys.exit(_STATUS_EXIT[verdict.status])


@main.command()
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--output", type=click.Path(), default=None, help="report file (default: stdout)")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="json", show_default=True)
def experiment(config_path, output, fmt):
    """Run a suite config; emits the report and exits per the summary."""
    try:
        raw = json.loads(Path(config_path).read_text())
        config = parse_experiment_config(raw, default_horizon=_default_horizon())
        bundle = harness.run_suite(config)
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    rendered = harness.render_csv(bundle) if fmt == "csv" else harness.render_json(bundle)
    if output:
        Path(output).write_text(rendered)
        click.echo(f"wrote {output}", err=True)
        click.echo(harness.dumps(bundle.summary))
    else:
        click.echo(rendered, nl=False)
    for name, elapsed in bundle.timings:
        click.echo(f"{name}: {elapsed:.3f}s", err=True)
    sys.exit(bundle.summary["exit_code"])


@main.command(name="core")
@click.option("--sequence", required=True, help="corpus entry label")
@click.option("--ideal", default="fin", show_default=True)
@_horizon
@_grid
@_theta
def core_cmd(sequence, ideal, horizon, grid, theta):
    """Compute the core interval of a corpus sequence under an ideal; exit code 2 when inconclusive."""
    try:
        x = corpus_entry(sequence)
    except KeyError as exc:
        raise click.ClickException(str(exc))
    cfg = _run_config(CoreConfig, horizon=horizon or _default_horizon() or 100_000, grid=grid, theta=theta)
    try:
        ii = _ideal_arg(ideal, "--ideal")
        interval = core(x, ii, cfg)
        result = {"lo": interval.lo, "hi": interval.hi, "method": interval.method}
        basis = interval
    except ConfigError as exc:
        raise click.ClickException(str(exc))
    except InconclusiveCellsError as exc:
        result = {"status": "inconclusive", "message": f"{type(exc).__name__}: {exc}", "cells": exc.cells}
        basis = cfg
    # The horizon, grid and theta the answer rests on.
    result.update(sequence=x.label, ideal=ideal, horizon=basis.horizon, grid=basis.grid, theta=basis.theta)
    click.echo(harness.dumps(result))
    if "status" in result:
        sys.exit(_STATUS_EXIT[Status.INCONCLUSIVE])


@main.command()
@click.option("--set", "set_spec", required=True, help="JSON set spec")
@_horizon
def density(set_spec, horizon):
    """Exact and empirical density of a set description."""
    try:
        s = parse_set(_json_arg(set_spec, "--set"))
        n = horizon or _default_horizon() or 100_000
        lo_emp, hi_emp = empirical_density(s, n)
        out = {"empirical": {"horizon": n, "lower": lo_emp, "upper": hi_emp}}
        try:
            exact = exact_density(s)
            if isinstance(exact, tuple):
                out["exact"] = {"lower": str(exact[0]), "upper": str(exact[1])}
            else:
                out["exact"] = {"value": str(exact)}
        except UnsupportedSetError:
            out["exact"] = None
    except ValueError as exc:  # a ConfigError, or a horizon empirical_density rejects
        raise click.ClickException(str(exc))
    click.echo(harness.dumps(out))


@main.command()
def catalog():
    """List available ideals, matrices, and corpus entries."""
    click.echo(harness.list_catalog(), nl=False)
