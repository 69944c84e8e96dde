"""The `ncft` command line, also run as `python -m ncft`.

A click front end over ncft.cli, which it reaches through the module
(cli.run_experiment, cli.run_sweep, ...), so that a function replaced on
ncft.cli is the one the command calls.
"""

from __future__ import annotations

import json
import os
from typing import Optional

import click

from ncft import cli, tracking


def _coverage_line(out_dir: str) -> str:
    """The conformance verdict and how the samples drawn split into
    usable, skipped outside the ball and too near the manifold, read back
    from the run's conformance.json."""
    with open(os.path.join(out_dir, "conformance.json")) as fh:
        conformance = json.load(fh)
    grid = conformance["grid"]
    near = grid["n_samples"] - grid["n_usable"] - grid["n_skipped_ball"]
    return (f"conformance: {cli._status(conformance['passed'])}, "
            f"{grid['n_usable']} of {grid['n_samples']} samples usable, "
            f"{grid['n_skipped_ball']} skipped outside the ball, "
            f"{near} too near the manifold")


@click.command(name="ncft")
@click.option("--config", "config_path", type=click.Path(exists=True,
              dir_okay=False), default=None, help="Run configuration JSON.")
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              default="ncft-out", show_default=True,
              help="Artifact output directory.")
@click.option("--workers", type=click.IntRange(min=1), default=1,
              show_default=True, help="Parallel sweep workers.")
@click.option("--check", is_flag=True, help="Run the acceptance suite.")
def main(config_path: Optional[str], out_dir: str, workers: int,
         check: bool):
    """Front-tracking experiment runner."""
    if check:
        manifest = cli.run_check(out_dir)
        failed = [key for key, entry in manifest["checks"].items()
                  if entry["status"] == "fail"]
        for key, entry in sorted(manifest["checks"].items()):
            click.echo(f"{key} {entry['name']}: {entry['status']}")
        if failed:
            raise click.ClickException(
                f"acceptance checks failed: {', '.join(sorted(failed))}")
        return
    if config_path is None:
        raise click.UsageError("--config is required unless --check is given")
    try:
        cfg = cli._apply_env_seed(
            cli.validate_config(cli.load_config(config_path)))
        if "sweep" in cfg:
            path = cli.run_sweep(cfg, out_dir, workers=workers)
            click.echo(f"sweep written: {path}")
        else:
            manifest = cli.run_experiment(cfg, out_dir)
            for key, entry in sorted(manifest["checks"].items()):
                if entry["status"] != "not_evaluated":
                    click.echo(f"{key} {entry['name']}: {entry['status']}")
            click.echo(_coverage_line(out_dir))
            click.echo(f"artifacts written: {os.path.abspath(out_dir)}")
    except cli.ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    except tracking.RUN_ERRORS as exc:
        click.echo(f"run failed: {type(exc).__name__}: {exc}", err=True)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
