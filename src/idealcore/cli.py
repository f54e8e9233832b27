"""Command-line interface: check, experiment, core, density, catalog."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import click

from . import harness
from .asymptotics import CoreConfig, core, oracle_core, UnsupportedInstanceError
from .ideals import DEFAULT_THETA, empirical_density, exact_density, UnsupportedSetError
from .regularity import (
    CHECKS,
    CheckConfig,
    FamilyMisclassifiedError,
    NegativeEntryError,
    Status,
    TestFamily,
)
from .sequences import corpus_entry
from .specs import ConfigError, parse_experiment_config, parse_ideal, parse_matrix, parse_set

_STATUS_EXIT = {Status.SATISFIED: 0, Status.VIOLATED: 1, Status.INCONCLUSIVE: 2}


def _default_horizon() -> int | None:
    raw = os.environ.get("IDEALCORE_DEFAULT_HORIZON")
    if not raw:
        return None
    try:
        return int(raw)
    except ValueError:
        raise click.ClickException(f"IDEALCORE_DEFAULT_HORIZON: not an integer: {raw!r}")


def _core_config(horizon: int, grid: float, theta: float) -> CoreConfig:
    """The core engine's configuration; a value it rejects is a CLI error."""
    try:
        return CoreConfig(horizon=horizon, grid=grid, theta=theta)
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


_common = [
    click.option("--horizon", type=int, default=None, help="truncation horizon (env IDEALCORE_DEFAULT_HORIZON)"),
    click.option("--tol", type=float, default=1e-2, show_default=True),
    click.option("--grid", type=float, default=1e-2, show_default=True),
    click.option("--theta", type=float, default=DEFAULT_THETA, show_default=True),
    click.option("--seed", type=int, default=0, show_default=True),
]


def common_options(fn):
    for opt in reversed(_common):
        fn = opt(fn)
    return fn


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
@common_options
def check(matrix, ideal_i, ideal_j, theorem, family, horizon, tol, grid, theta, seed):
    """Run a condition checker; exit code 0=satisfied, 1=violated, 2=inconclusive."""
    try:
        a = _matrix_arg(matrix)
        ii = _ideal_arg(ideal_i, "--ideal-i")
        jj = _ideal_arg(ideal_j, "--ideal-j")
        cfg = CheckConfig(
            horizon=horizon or _default_horizon() or 10_000,
            tol=tol,
            grid=grid,
            theta=theta,
            seed=seed,
        )
        _core_config(cfg.horizon, grid, theta)  # the checkers' limsup conditions run on it
        fam = None
        if family:
            raw = json.loads(Path(family).read_text())
            fam = TestFamily(
                tuple(parse_set(s, "family.sets_in_ideal") for s in raw.get("sets_in_ideal", [])),
                tuple(parse_set(s, "family.sets_positive") for s in raw.get("sets_positive", [])),
                tuple(parse_set(s, "family.sets_infinite") for s in raw.get("sets_infinite", [])),
            )
        verdict = CHECKS[theorem](a, ii, jj, family=fam, cfg=cfg)
    except (ConfigError, FamilyMisclassifiedError, NegativeEntryError) as exc:
        raise click.ClickException(str(exc))
    click.echo(json.dumps(verdict.to_dict(), sort_keys=True, indent=2))
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
        click.echo(json.dumps(bundle.summary, sort_keys=True, indent=2))
    else:
        click.echo(rendered, nl=False)
    for name, elapsed in bundle.timings:
        click.echo(f"{name}: {elapsed:.3f}s", err=True)
    sys.exit(bundle.summary["exit_code"])


@main.command(name="core")
@click.option("--sequence", required=True, help="corpus entry label")
@click.option("--ideal", default="fin", show_default=True)
@click.option("--oracle", is_flag=True, help="use the exact symbolic oracle instead of the grid")
@common_options
def core_cmd(sequence, ideal, oracle, horizon, tol, grid, theta, seed):
    """Compute the core interval of a corpus sequence under an ideal."""
    try:
        x = corpus_entry(sequence)
    except KeyError as exc:
        raise click.ClickException(str(exc))
    try:
        ii = _ideal_arg(ideal, "--ideal")
        if oracle:
            interval = oracle_core(x, ii, theta)
        else:
            cfg = _core_config(horizon or _default_horizon() or 100_000, grid, theta)
            interval = core(x, ii, cfg)
    except (ConfigError, UnsupportedInstanceError) as exc:
        raise click.ClickException(str(exc))
    click.echo(
        json.dumps(
            {
                "sequence": x.label,
                "ideal": ideal,
                "lo": interval.lo,
                "hi": interval.hi,
                "method": interval.method,
                "horizon": interval.horizon,
                "grid": interval.grid,
                "theta": interval.theta,
            },
            sort_keys=True,
            indent=2,
        )
    )


@main.command()
@click.option("--set", "set_spec", required=True, help="JSON set spec")
@common_options
def density(set_spec, horizon, tol, grid, theta, seed):
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
    click.echo(json.dumps(out, sort_keys=True, indent=2))


@main.command()
def catalog():
    """List available ideals, matrices, and corpus entries."""
    click.echo(harness.list_catalog(), nl=False)
