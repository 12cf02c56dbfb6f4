"""Command-line front end.

Subcommands: gen (write a synthetic stream), run (score a roster of
predictors and sign-test every pair), trace (estimate / learning-rate
trajectories), ingest-check (validate a token file). Exit codes: 0
success, 2 configuration error, 1 runtime error.
"""

import sys
from dataclasses import fields

import click

from . import harness, synth
from .harness import ConfigError, EvalConfig, ExperimentSpec


def _parse_method(text):
    try:
        kind, param = text.split(":", 1)
    except ValueError:
        raise click.UsageError(
            "method must look like kind:param, e.g. dyal:0.01")
    return text, kind, param


# Each option's default is its dataclass field's.
_DEFAULT = {f.name: f.default for c in (ExperimentSpec, synth.GenConfig,
                                        EvalConfig) for f in fields(c)}


def _stream_options(f):
    """Declare the stream options of gen and run, in --help order. A
    command takes them as keyword arguments and hands them to
    _stream_fields."""
    for option in reversed((
            click.option("--seq-len", type=int, default=_DEFAULT["seq_len"],
                         help="sequence length; for multi-item a lower "
                         "bound, as the last period is not cut."),
            click.option("--seed", type=int, default=_DEFAULT["seed"]),
            click.option("--tp", type=float, default=_DEFAULT["tp"]),
            click.option("--mode", type=click.Choice(["oscillate", "uniform"]),
                         default=_DEFAULT["mode"]),
            click.option("--o-min", type=int, default=_DEFAULT["o_min"]),
            click.option("--l-min", type=int, default=_DEFAULT["l_min"]),
            click.option("--p-max", type=float, default=_DEFAULT["p_max"]),
            click.option("--recycle", is_flag=True))):
        f = option(f)
    return f


def _stream_fields(kind, seq_len, seed, tp, mode, **gen):
    """The ExperimentSpec fields that the stream options set; UsageError
    for the first option given, in --help order, that kind does not read."""
    ctx = click.get_current_context()
    unread = harness.unread_fields(kind, mode)
    for p in ctx.command.params:
        if p.name in unread and ctx.get_parameter_source(p.name) is \
                click.core.ParameterSource.COMMANDLINE:
            raise click.UsageError("%s is not read by --kind %s"
                                   % (p.opts[0], kind))
    return {"kind": kind, "seq_len": seq_len, "seed": seed, "tp": tp,
            "mode": mode, "gen": synth.GenConfig(**gen)}


@click.group(context_settings={"show_default": True})
def cli():
    pass


@cli.command()
@click.option("--kind", required=True, type=click.Choice(
    [k for k in harness.EXPERIMENT_KINDS if k != "real-file"]))
@_stream_options
@click.option("--out", type=click.Path(), required=True)
def gen(out, **stream):
    """Generate a synthetic stream: stream.txt plus schedule.csv. It is
    sequence 0 of what run scores with the same stream options."""
    spec = ExperimentSpec(roster=[], **_stream_fields(**stream))
    _, made = next(harness.streams(spec))
    harness.write_stream(out, made)
    click.echo("wrote %d observations to %s" % (len(made.observations), out))


@cli.command()
@click.option("--kind", type=click.Choice(harness.EXPERIMENT_KINDS),
              required=True)
@click.option("--method", "methods", multiple=True, required=True,
              help="kind:param, e.g. dyal:0.01; repeatable.")
@click.option("--n-seqs", type=int, default=_DEFAULT["n_seqs"])
@_stream_options
@click.option("--input", "input_path", type=click.Path())
@click.option("--p-min", type=float, default=_DEFAULT["p_min"])
@click.option("--p-ns", type=float, default=_DEFAULT["p_ns"])
@click.option("--c-ns", type=int, default=_DEFAULT["c_ns"])
@click.option("--referee-window", type=int, default=_DEFAULT["window"])
@click.option("--d", "dev", type=float, multiple=True,
              default=_DEFAULT["dev_ds"],
              help="deviation threshold; repeatable.")
@click.option("--out", type=click.Path(), required=True)
def run(methods, n_seqs, input_path, p_min, p_ns, c_ns, referee_window, dev,
        out, **stream):
    """Score a roster of predictors; writes per_seq.csv, aggregate.csv
    and sign_tests.csv."""
    roster = [_parse_method(m) for m in methods]
    spec = ExperimentSpec(
        roster=roster, out_dir=out, n_seqs=n_seqs, **_stream_fields(**stream),
        eval_cfg=EvalConfig(p_min, p_ns, c_ns, referee_window, dev),
        input_path=input_path)
    result = harness.run_experiment(spec)
    for method, param, metric, mu, sd in result["aggregates"]:
        if metric == "avg_logloss_ns":
            click.echo("%-24s %s  %.4f +- %.4f" % (method, metric, mu, sd))
    click.echo("results in %s" % out)


@cli.command()
@click.option("--input", "input_path", type=click.Path(), required=True)
@click.option("--method", default="dyal:0.01")
@click.option("--self-concat", "concat_k", type=click.IntRange(min=1),
              default=1, help="repeat the sequence this many times.")
@click.option("--track-item", type=int, default=None,
              help="also trace this item's estimate.")
@click.option("--out", type=click.Path(), required=True)
def trace(input_path, method, concat_k, track_item, out):
    """Learning-rate (and optional estimate) trajectories on a token
    file; self-concatenation makes drift visible as rate spikes."""
    _label, kind, param = _parse_method(method)
    if kind != "dyal":
        raise click.UsageError("rate traces require a dyal method")
    pred = harness.make_predictor(kind, param)
    obs = harness.ingest_sequence(input_path)
    # Ids are interned 0, 1, ... in first-seen order.
    if track_item is not None and not 0 <= track_item <= max(obs):
        raise ConfigError("--track-item %d: the file's ids are 0 to %d"
                          % (track_item, max(obs)))
    steps = harness.self_concat(obs, concat_k, pred, track_item)
    click.echo("wrote %s" % harness.write_trace(out, steps, track_item))


@cli.command("ingest-check")
@click.argument("path", type=click.Path())
def ingest_check(path):
    """Validate a one-token-per-line input file."""
    obs = harness.ingest_sequence(path)
    click.echo("%d observations, %d unique items" % (len(obs),
                                                     len(set(obs))))


def main():
    try:
        sys.exit(cli.main(standalone_mode=False))
    except click.UsageError as e:
        click.echo("error: %s" % e.format_message(), err=True)
        sys.exit(2)
    except click.Abort:
        sys.exit(1)
    except ConfigError as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(2)
    except Exception as e:
        click.echo("error: %s" % e, err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
