"""Command-line interface.

Exposes the library's main entry points without writing Python::

    python -m repro encode --bits 10001110 10000110 --scheme dbi-opt
    python -m repro schemes
    python -m repro pareto --bits 10001110 10000110 10010110
    python -m repro sweep-alpha --samples 2000 --points 26
    python -m repro sweep-rate --c-load-pf 3 --jobs 4 --out fig7.json
    python -m repro sweep-load --from-artifact fig8.json
    python -m repro table1
    python -m repro ctrl --trace gpu --interface pod135 lvstl11
    python -m repro ctrl --bursts 10000 --channels 4 --lanes 4
    python -m repro faults --rates 1e-3 1e-2 1e-1 --out faults.json
    python -m repro granularity --patterns --alpha 2 --beta 1
    python -m repro sso --samples 10000 --interfaces pod135 lvstl11
    python -m repro serve --port 7351 --cache-dir ~/.cache/repro

Every subcommand prints a markdown table or ASCII plot to stdout, so
results can be piped into reports directly.  Every experiment
subcommand (sweeps, ``ctrl``, ``faults``, ``granularity``, ``sso``) builds
a spec, gets its result from :func:`_run_or_load` and renders it.  They
accept ``--backend`` (defaulting from ``REPRO_BACKEND``), ``--out`` to
persist the run as a JSON artifact and ``--cache-dir DIR`` — a
persistent on-disk activity cache (:mod:`repro.service.diskcache`)
shared across runs, processes and the ``repro serve`` daemon
(``REPRO_CACHE_DIR`` supplies the default); the sweeps and ``ctrl`` also
take ``--jobs N`` and ``--from-artifact`` to re-render a saved artifact
without re-simulating.  Sweeps and daemon share one spec builder and
one set of defaults (:mod:`repro.sim.experiments`).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List, Optional, Sequence

from .analysis.ascii_plot import quick_plot
from .analysis.crossover import (
    elementwise_min,
    interpolated_crossing,
    peak_advantage,
)
from .core.bitops import BYTE_MASK, WORD_WIDTH, parse_bits
from .core.burst import Burst
from .core.costs import CostModel
from .core.schemes import available_schemes, get_scheme
from .core.vectorized import BACKENDS
from .phy.interface import available_interfaces
from .phy.power import GBPS, PICOFARAD, PICOJOULE
# Engines (the controller, the extensions, trace sources, the disk cache)
# are imported by the commands that run them; only their defaults here.
from .extensions import DEFAULT_FAULT_RATES, VALID_GROUP_SIZES
from .sim.experiments import (
    FIGURE_DEFAULTS,
    FIGURE_INTERFACES,
    PAPER_SCHEMES,
    REPLAY_DEFAULTS,
    ExperimentResult,
    ReplayPoint,
    ReplaySpec,
    fault_experiment,
    figure_experiment,
    granularity_experiment,
    load_artifact,
    load_replay_artifact,
    run_experiment,
    run_faults,
    run_granularity,
    run_replay,
    run_sso,
    save_artifact,
    sso_experiment,
)
from .sim.report import (
    format_alpha_sweep,
    format_data_rate_sweep,
    format_load_sweep,
    format_provenance,
    markdown_table,
)
from .sim.sweep import to_alpha_result, to_load_result, to_rate_result
from .ctrl.adaptive import (
    DEFAULT_HALF_LIFE_BYTES,
    OperatingPoint,
    OperatingPointSchedule,
    TrackingConfig,
)
from .workloads import DEFAULT_TRACE_CHUNK_BYTES
from .workloads.patterns import PATTERN_NAMES, pattern_population
from .workloads.population import RandomPopulation


class _UsageError(Exception):
    """A handled usage error: :func:`main` prints it and exits 2."""


def _burst_from_args(args: argparse.Namespace) -> Burst:
    if args.bits or args.hex:  # bytes checked by their argparse types
        return Burst(args.bits or args.hex)
    from .core.burst import PAPER_FIG2_BURST
    return PAPER_FIG2_BURST


def _cmd_encode(args: argparse.Namespace) -> int:
    burst = _burst_from_args(args)
    model = _built("--alpha/--beta", CostModel, alpha=args.alpha,
                   beta=args.beta)
    names = [args.scheme] if args.scheme else available_schemes()
    rows: List[List[object]] = []
    for name in names:
        scheme = get_scheme(name)
        encoded = scheme.encode_batch([burst], backend=args.backend)[0]
        encoded.verify()
        transitions, zeros = encoded.activity()
        pattern = "".join("I" if flag else "." for flag in encoded.invert_flags)
        rows.append([name, zeros, transitions,
                     f"{encoded.cost(model):.1f}", pattern])
    print(f"burst: {' '.join(burst.bit_strings())}")
    print(markdown_table(
        ["scheme", "zeros", "transitions",
         f"cost (a={args.alpha:g}, b={args.beta:g})", "invert pattern"],
        rows))
    return 0


def _cmd_schemes(args: argparse.Namespace) -> int:
    del args
    for name in available_schemes():
        print(name)
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    from .core.pareto import pareto_summary

    burst = _burst_from_args(args)
    if len(burst) > 16:
        raise _UsageError("pareto enumeration supports at most 16 bytes")
    print(f"burst: {' '.join(burst.bit_strings())}")
    print(pareto_summary(burst))
    return 0


#: Simulation flags --from-artifact ignores, with their parser defaults.
_SIM_FLAG_DEFAULTS = {"samples": FIGURE_DEFAULTS["samples"],
                      "seed": FIGURE_DEFAULTS["seed"], "jobs": 1,
                      "backend": None, "cache_dir": None}


def _run_or_load(args: argparse.Namespace, run, build_spec, load=None,
                 **options):
    """Every experiment subcommand's result: checks ``--out``, then
    returns ``load(path)`` for ``--from-artifact``, else runs
    ``build_spec()`` with the backend, the cache and the kind's
    *options*."""
    from .service.diskcache import open_cache

    if args.out:
        out_dir = os.path.dirname(os.path.abspath(args.out))
        if not os.path.isdir(out_dir):
            raise _UsageError(f"--out {args.out}: directory {out_dir} "
                              "does not exist")
    path = getattr(args, "from_artifact", None)
    if path:
        ignored = [f"--{name}" for name, default in _SIM_FLAG_DEFAULTS.items()
                   if getattr(args, name, default) != default]
        if ignored:
            print(f"warning: {' '.join(ignored)} ignored — rendering from "
                  f"{path}, not simulating", file=sys.stderr)
        try:
            return load(path)
        except (OSError, ValueError, KeyError, TypeError) as error:
            raise _UsageError(
                f"{path}: cannot load artifact ({error})") from error
    return run(build_spec(), backend=args.backend,
               cache=open_cache(args.cache_dir), **options)


def _run_sweep(args: argparse.Namespace, figure: str, converter):
    """``(result, its figure form)`` of one sweep; a loaded artifact must
    render *figure* and convert."""
    def load(path):
        result = load_artifact(path)
        if result.spec.figure != figure:
            raise _UsageError(f"{path}: artifact renders figure "
                              f"{result.spec.figure!r}, expected {figure!r}")
        converter(result)  # malformed figure parameters: a load error
        return result

    result = _run_or_load(args, run_experiment,
                          lambda: figure_experiment(figure, vars(args)),
                          load, jobs=args.jobs)
    return result, converter(result)


def _print_provenance(args: argparse.Namespace,
                      result: ExperimentResult) -> int:
    """The sweeps' footer: provenance, then the ``--out`` report."""
    if args.out or "loaded_from" in result.provenance:
        print()
        print(format_provenance(result))
    _write_out(args, result)
    return 0


def _cmd_sweep_alpha(args: argparse.Namespace) -> int:
    result, sweep = _run_sweep(args, "alpha", to_alpha_result)
    print(format_alpha_sweep(sweep, points=11))
    best = elementwise_min(sweep.series["dbi-dc"], sweep.series["dbi-ac"])
    crossover = interpolated_crossing(sweep.ac_costs, sweep.series["dbi-ac"],
                                      sweep.series["dbi-dc"])
    peak_x, peak_gain = peak_advantage(sweep.ac_costs,
                                       sweep.series["dbi-opt"], best)
    print(f"\nAC/DC crossover: alpha = {crossover:.3f}")
    print(f"OPT peak gain: {100 * peak_gain:.2f}% at alpha = {peak_x:.2f}")
    if args.plot:
        print(quick_plot(sweep.ac_costs,
                         {name: sweep.series[name]
                          for name in PAPER_SCHEMES},
                         title="energy per burst vs AC cost",
                         x_label="AC cost"))
    return _print_provenance(args, result)


def _cmd_sweep_rate(args: argparse.Namespace) -> int:
    result, sweep = _run_sweep(args, "rate", to_rate_result)
    print(format_data_rate_sweep(sweep, every=4))
    if args.plot:
        gbps = [rate / 1e9 for rate in sweep.data_rates_hz]
        print(quick_plot(gbps,
                         {name: sweep.normalized[name]
                          for name in ("dbi-dc", "dbi-ac", "dbi-opt",
                                       "dbi-opt-fixed")},
                         title=f"normalised energy ({args.interface}, "
                               f"{args.c_load_pf:g} pF)",
                         x_label="data rate [Gbps]"))
    return _print_provenance(args, result)


def _cmd_sweep_load(args: argparse.Namespace) -> int:
    result, sweep = _run_sweep(args, "load", to_load_result)
    print(format_load_sweep(sweep, every=4))
    for load in sweep.normalized:
        rate, value = sweep.best_gain(load)
        print(f"{load * 1e12:.0f} pF: best saving {100 * (1 - value):.2f}% "
              f"at {rate / 1e9:.1f} Gbps")
    return _print_provenance(args, result)


def _ctrl_trace(args: argparse.Namespace) -> dict:
    """The replay trace as :class:`ReplaySpec` keyword arguments.

    Trace files stream through a chunked :class:`FileTraceSource`
    (``source=``, never a whole-file read); named traces and synthetic
    bursts stay inline payloads (``payload=``), which keeps ``--jobs``
    pool parallelism for them.
    """
    path = args.trace_file or (args.trace if args.trace
                               and os.path.exists(args.trace) else None)
    if path is not None:
        from .workloads.source import FileTraceSource

        try:
            return {"source": FileTraceSource(path,
                                              chunk_bytes=args.chunk_bytes,
                                              limit=args.bytes)}
        except (OSError, ValueError) as error:
            raise _UsageError(f"trace file {path}: {error}") from error
    if args.trace:
        try:
            from .workloads.traces import trace_bytes
        except ImportError as error:
            raise _UsageError(f"--trace {args.trace}: named traces need NumPy "
                              "(pass a file path or use --bursts instead)"
                              ) from error
        try:
            return {"payload": trace_bytes(args.trace, args.bytes or 65536,
                                           seed=args.seed)}
        except KeyError as error:
            raise _UsageError(f"--trace: {error.args[0]}") from error
    return {"payload": RandomPopulation(count=args.bursts,
                                        seed=args.seed).to_bytes()}


def _parse_operating_points(specs: Sequence[str], c_load_pf: float,
                            option: str, with_starts: bool):
    """Parse ``IFACE@GBPS[:START]`` point specs for --schedule/--track.

    Returns ``(points, switch_at)``.  ``START`` markers are only
    meaningful (and, from the second point on, required) for schedules.
    """
    points: List[OperatingPoint] = []
    switch_at: List[int] = []
    for index, text in enumerate(specs):
        body, colon, start = text.partition(":")
        interface, at, gbps = body.partition("@")
        try:
            if not at:
                raise ValueError("expected IFACE@GBPS")
            if colon and not with_starts:
                raise ValueError("switch positions are for --schedule only")
            if with_starts and index > 0 and not colon:
                raise ValueError(
                    "every point after the first needs :START")
            if colon:
                if index == 0:
                    raise ValueError("the first point cannot have :START")
                switch_at.append(int(start))
            points.append(OperatingPoint(
                interface=interface, data_rate_hz=float(gbps) * GBPS,
                c_load_farads=c_load_pf * PICOFARAD))
        except (KeyError, ValueError) as error:
            raise _UsageError(f"{option} {text!r}: {error}") from error
    return points, switch_at


def _built(option: str, cls, **fields):
    """``cls(**fields)``, with a ``ValueError`` as *option*'s usage error."""
    try:
        return cls(**fields)
    except ValueError as error:
        raise _UsageError(f"{option}: {error}") from error


def _ctrl_spec(args: argparse.Namespace) -> ReplaySpec:
    """The replay ``repro ctrl`` describes."""
    trace = _ctrl_trace(args)
    schedule = tracking = None
    if args.schedule:
        points, switch_at = _parse_operating_points(
            args.schedule, args.c_load_pf, "--schedule", True)
        schedule = _built("--schedule", OperatingPointSchedule,
                          points=tuple(points), switch_at=tuple(switch_at),
                          unit=args.schedule_unit)
    if args.track:
        points, __ = _parse_operating_points(
            args.track, args.c_load_pf, "--track", False)
        tracking = _built("--track", TrackingConfig, points=tuple(points),
                          half_life_bytes=args.track_half_life)
    return _built(
        "ctrl", ReplaySpec, name="cli-ctrl-replay",
        points=tuple(ReplayPoint(
            interface=name, data_rate_hz=args.data_rate_gbps * GBPS,
            c_load_farads=args.c_load_pf * PICOFARAD)
            for name in dict.fromkeys(args.interface)),
        channels=args.channels, byte_lanes=args.lanes, window=args.window,
        line_bytes=args.line_bytes, chunk_bytes=args.chunk_bytes,
        schedule=schedule, tracking=tracking, **trace)


def _cmd_ctrl(args: argparse.Namespace) -> int:
    result = _run_or_load(args, run_replay, lambda: _ctrl_spec(args),
                          load_replay_artifact, jobs=args.jobs)
    spec = result.spec
    payload_bytes = int(result.provenance.get("payload_bytes",
                                              len(spec.payload)))
    totals_any = next(iter(result.totals.values()))
    streamed = (f" (streamed in {spec.effective_chunk_bytes()}-byte chunks)"
                if result.provenance.get("streamed") else "")
    print(f"payload: {payload_bytes} bytes -> {totals_any.transactions} "
          f"transactions of <= {spec.line_bytes} B over "
          f"{spec.channels} channel(s) x {spec.byte_lanes} lane(s), "
          f"window {spec.window}{streamed}")
    for point in spec.points:
        priced = result.series[point.label]
        totals = result.totals_for(point.label)
        _print_energy_table(
            point.label, ["channel", "bytes"], totals, priced,
            [(channel, *counts, energy) for channel, (counts, energy)
             in enumerate(zip(totals.channels,
                              priced["per_channel_energy"]))])
    adaptive_label = spec.adaptive_label
    if adaptive_label is not None and adaptive_label in result.series:
        priced = result.series[adaptive_label]
        totals = result.totals_for(adaptive_label)
        kind = "schedule" if spec.schedule is not None else "tracking"
        _print_energy_table(
            f"{adaptive_label} ({kind}, per segment)", ["segment", "beats"],
            totals, priced,
            [(*segment, part["energy_joules"]) for segment, part
             in zip(totals.segments, priced["per_segment_energy"])])
    return _finish(args, result, "replays")


def _print_energy_table(title: str, headers: List[str], totals, priced,
                        parts) -> None:
    """One replay series: a row per ``(name, zeros, transitions, beats,
    joules)`` part (channel or segment), then the totals row."""
    rows: List[List[object]] = [
        [name, beats, zeros, transitions, f"{energy / PICOJOULE:.1f}",
         f"{energy / beats / PICOJOULE:.3f}" if beats else "-"]
        for name, zeros, transitions, beats, energy in parts]
    rows.append(["total", totals.bytes_written, totals.zeros,
                 totals.transitions,
                 f"{priced['energy_joules'] / PICOJOULE:.1f}",
                 f"{priced['energy_per_byte'] / PICOJOULE:.3f}"])
    print(f"\n## {title}")
    print(markdown_table(
        headers + ["zeros", "transitions", "energy [pJ]", "pJ/byte"], rows))


def _write_out(args: argparse.Namespace, result) -> None:
    """Persist *result* to ``--out`` (if given) and report it."""
    if not args.out:
        return
    try:
        save_artifact(result, args.out)
    except OSError as error:
        raise _UsageError(
            f"--out {args.out}: cannot write artifact ({error})") from error
    print(f"# artifact written to {args.out}")


def _finish(args: argparse.Namespace, result, *fields: str) -> int:
    """The tail of the replay, faults, granularity and sso commands: the
    ``--out`` report, then a one-line provenance footer."""
    _write_out(args, result)
    provenance = result.provenance
    print("\n# " + " ".join(f"{name}={provenance[name]}"
                            for name in ("backend", *fields, "cache_hits"))
          + f" elapsed={provenance['elapsed_s']:.3f}s"
          + (f" | loaded from {provenance['loaded_from']}"
             if "loaded_from" in provenance else ""))
    return 0


def _axis_population(args: argparse.Namespace):
    """Population source for the faults/granularity axes.

    ``--patterns`` selects the directed suite (all patterns when given
    without names), tiled so the population size approximates
    ``--samples``; otherwise ``--samples`` seeded random bursts.
    """
    if args.patterns is not None:
        names = list(args.patterns) or PATTERN_NAMES
        return pattern_population(names,
                                  repeats=max(1, args.samples // len(names)))
    return RandomPopulation(count=args.samples, seed=args.seed)


def _cmd_faults(args: argparse.Namespace) -> int:
    result = _run_or_load(
        args, run_faults,
        lambda: fault_experiment(_axis_population(args),
                                 schemes=list(dict.fromkeys(args.schemes)),
                                 rates=tuple(args.rates),
                                 seed=args.fault_seed))
    spec = result.spec
    rows: List[List[object]] = []
    for slot_name, _scheme in spec.slots:
        for row in result.series[slot_name]:
            rows.append([slot_name, f"{row['rate']:g}",
                         row["injected_faults"], row["bit_errors"],
                         f"{row['bit_error_rate']:.3e}",
                         f"{row['beat_error_rate']:.3e}",
                         f"{row['amplification']:.3f}"])
    print(f"population: {len(spec.population)} bursts, "
          f"mask seed {spec.seed}")
    print(markdown_table(
        ["scheme", "fault rate", "injected", "bit errors", "BER",
         "beat ER", "amplification"], rows))
    return _finish(args, result, "injections")


def _cmd_granularity(args: argparse.Namespace) -> int:
    result = _run_or_load(
        args, run_granularity,
        lambda: granularity_experiment(
            _axis_population(args), model=_built(
                "--alpha/--beta", CostModel, alpha=args.alpha, beta=args.beta),
            group_sizes=tuple(args.group_sizes)))
    spec = result.spec
    rows = [[row["group_size"], f"{row['mean_zeros']:.3f}",
             f"{row['mean_transitions']:.3f}", f"{row['mean_cost']:.3f}",
             row["lines_per_byte_lane"]]
            for row in result.rows]
    print(f"population: {len(spec.population)} bursts")
    print(markdown_table(
        ["group size", "zeros/burst", "transitions/burst",
         f"cost (a={args.alpha:g}, b={args.beta:g})", "lines/byte lane"],
        rows))
    return _finish(args, result, "encodes")


def _cmd_sso(args: argparse.Namespace) -> int:
    result = _run_or_load(
        args, run_sso,
        lambda: sso_experiment(
            _axis_population(args),
            schemes=list(dict.fromkeys(args.schemes)),
            interfaces=list(dict.fromkeys(args.interfaces)),
            chained=args.chained, threshold=args.threshold))
    spec = result.spec
    # Rank worst-first: highest peak switching, then highest mean.
    flat = [(slot_name, row)
            for slot_name, _scheme in spec.slots
            for row in result.series[slot_name]]
    flat.sort(key=lambda item: (-item[1]["max_switching"],
                                -item[1]["mean_switching"],
                                item[0], item[1]["interface"]))
    rows: List[List[object]] = [
        [slot_name, row["interface"], row["max_switching"],
         f"{row['mean_switching']:.3f}",
         f"{100.0 * row['exceed_fraction']:.2f}%",
         f"{1000.0 * row['peak_current_amps']:.2f}",
         f"{1000.0 * row['mean_current_amps']:.2f}"]
        for slot_name, row in flat]
    print(f"population: {len(spec.population)} bursts, "
          f"{'chained' if spec.chained else 'per-burst'} boundary")
    print(markdown_table(
        ["scheme", "interface", "max SSO", "mean SSO",
         f">{spec.threshold} lanes", "peak mA", "mean mA"], rows))
    return _finish(args, result, "encodes")


def _cmd_serve(args: argparse.Namespace) -> int:
    from .service.daemon import ExperimentDaemon
    from .service.diskcache import resolve_cache_dir

    cache_dir = resolve_cache_dir(args.cache_dir)
    daemon = ExperimentDaemon(host=args.host, port=args.port,
                              cache_dir=cache_dir,
                              artifact_dir=args.artifact_dir,
                              backend=args.backend,
                              request_timeout=args.request_timeout,
                              max_connections=args.max_connections)
    host, port = daemon.address
    where = f"cache: {cache_dir}" if cache_dir else "in-memory cache"
    print(f"repro service listening on {host}:{port} ({where})", flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    finally:
        daemon.shutdown()
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .hw.activity import DEFAULT_ACTIVITY_BURSTS
    from .hw.synthesis import table_one, table_one_markdown

    print(table_one_markdown(table_one(
        args.bursts or DEFAULT_ACTIVITY_BURSTS, backend=args.backend)))
    return 0


def _add_burst_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bits", nargs="+", type=_bit_string_byte,
                        metavar="BITSTRING",
                        help="burst bytes as MSB-first bit strings")
    parser.add_argument("--hex", nargs="+", type=_hex_byte,
                        metavar="HEXBYTE", help="burst bytes as hex values")


def _add_population_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--samples", type=_positive_int,
                        default=FIGURE_DEFAULTS["samples"],
                        help="random bursts in the population")
    parser.add_argument("--seed", type=_non_negative_int,
                        default=FIGURE_DEFAULTS["seed"], help="RNG seed")


def _add_backend_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=BACKENDS, default=None,
                        help="execution backend (default: REPRO_BACKEND "
                             "or auto)")


def _checked(convert, ok, rule: str, name: Optional[str] = None):
    """An argparse type: *convert* the value, then require *ok* of it."""
    def parse(value: str):
        number = convert(value)
        if not ok(number):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return number
    # argparse's "invalid int value" when *convert* raises ValueError
    parse.__name__ = name or convert.__name__
    return parse


_positive_int = _checked(int, lambda number: number >= 1, ">= 1")
_non_negative_int = _checked(int, lambda number: number >= 0, ">= 0")
_two_or_more = _checked(int, lambda number: number >= 2, ">= 2")
_lane_count = _checked(int, lambda number: 0 <= number <= WORD_WIDTH,
                       f"in [0, {WORD_WIDTH}]")
_port = _checked(int, lambda number: 0 <= number <= 65535, "in [0, 65535]")
_positive_float = _checked(
    float, lambda number: math.isfinite(number) and number > 0,
    "finite and > 0")
_non_negative_float = _checked(
    float, lambda number: math.isfinite(number) and number >= 0,
    "finite and >= 0")
_probability = _checked(float, lambda number: 0 <= number <= 1, "in [0, 1]")
_hex_byte = _checked(lambda value: int(value, 16),
                     lambda byte: 0 <= byte <= BYTE_MASK, "a byte (00-ff)",
                     name="hex byte")
_bit_string_byte = _checked(parse_bits, lambda byte: byte <= BYTE_MASK,
                            "at most 8 bits", name="bit string")


def _add_cache_dir_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", dest="cache_dir", metavar="DIR",
                        default=None,
                        help="persistent on-disk activity cache shared "
                             "across runs and processes (default: "
                             "REPRO_CACHE_DIR, else in-memory)")


def _add_axis_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags the faults, granularity and sso commands share."""
    _add_population_arguments(parser)
    parser.add_argument("--patterns", nargs="*", metavar="NAME",
                        choices=PATTERN_NAMES, default=None,
                        help="use the directed pattern suite (optionally a "
                             "subset) instead of random bursts")
    _add_backend_argument(parser)
    _add_cache_dir_argument(parser)
    parser.add_argument("--out", metavar="PATH",
                        help="persist the run as a JSON experiment artifact")


def _add_engine_arguments(parser: argparse.ArgumentParser) -> None:
    _add_backend_argument(parser)
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for the missing encodes or "
                             "replays (default: 1, serial)")
    _add_cache_dir_argument(parser)
    parser.add_argument("--out", metavar="PATH",
                        help="persist the run as a JSON experiment artifact")
    parser.add_argument("--from-artifact", dest="from_artifact",
                        metavar="PATH",
                        help="re-render a saved artifact instead of "
                             "simulating")


def _add_rate_grid_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--interface", choices=FIGURE_INTERFACES,
                        default=FIGURE_DEFAULTS["interface"])
    parser.add_argument("--max-gbps", type=_positive_int,
                        default=FIGURE_DEFAULTS["max_gbps"])


def build_parser() -> argparse.ArgumentParser:
    """Construct the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Optimal DC/AC data bus inversion coding (DATE 2018)")
    sub = parser.add_subparsers(dest="command", required=True)

    encode = sub.add_parser("encode", help="encode one burst with DBI schemes")
    _add_burst_arguments(encode)
    encode.add_argument("--scheme", choices=available_schemes(),
                        help="single scheme (default: all)")
    encode.add_argument("--alpha", type=_non_negative_float, default=1.0)
    encode.add_argument("--beta", type=_non_negative_float, default=1.0)
    _add_backend_argument(encode)
    encode.set_defaults(handler=_cmd_encode)

    schemes = sub.add_parser("schemes", help="list registered schemes")
    schemes.set_defaults(handler=_cmd_schemes)

    pareto = sub.add_parser("pareto", help="Pareto frontier of one burst")
    _add_burst_arguments(pareto)
    pareto.set_defaults(handler=_cmd_pareto)

    sweep_alpha = sub.add_parser("sweep-alpha",
                                 help="Fig. 3/4 alpha sweep")
    _add_population_arguments(sweep_alpha)
    sweep_alpha.add_argument("--points", type=_two_or_more,
                             default=FIGURE_DEFAULTS["points"])
    sweep_alpha.add_argument("--plot", action="store_true")
    _add_engine_arguments(sweep_alpha)
    sweep_alpha.set_defaults(handler=_cmd_sweep_alpha)

    sweep_rate = sub.add_parser("sweep-rate", help="Fig. 7 data-rate sweep")
    _add_population_arguments(sweep_rate)
    _add_rate_grid_arguments(sweep_rate)
    sweep_rate.add_argument("--c-load-pf", type=_positive_float,
                            default=FIGURE_DEFAULTS["c_load_pf"])
    sweep_rate.add_argument("--plot", action="store_true")
    _add_engine_arguments(sweep_rate)
    sweep_rate.set_defaults(handler=_cmd_sweep_rate)

    sweep_load = sub.add_parser("sweep-load", help="Fig. 8 load sweep")
    _add_population_arguments(sweep_load)
    _add_rate_grid_arguments(sweep_load)
    sweep_load.add_argument("--loads-pf", type=_positive_float, nargs="+",
                            default=list(FIGURE_DEFAULTS["loads_pf"]))
    _add_engine_arguments(sweep_load)
    sweep_load.set_defaults(handler=_cmd_sweep_load)

    ctrl = sub.add_parser(
        "ctrl", help="replay a trace through the write-path controller")
    source = ctrl.add_mutually_exclusive_group()
    source.add_argument("--trace", metavar="NAME|PATH",
                        help="named traffic class (text/float/image/pointer/"
                             "zero/gpu) or a binary file to replay")
    source.add_argument("--bursts", type=_positive_int,
                        default=REPLAY_DEFAULTS["bursts"], metavar="N",
                        help="synthetic input: N random 8-byte bursts "
                             "(default: %(default)s)")
    source.add_argument("--trace-file", dest="trace_file", metavar="PATH",
                        help="binary trace file, streamed chunk by chunk "
                             "in bounded memory (also applies to --trace "
                             "when it names an existing file)")
    ctrl.add_argument("--bytes", type=_positive_int, default=None,
                      metavar="N",
                      help="payload size for named traces (default: 65536); "
                           "for trace files, a cap on how much is streamed "
                           "(default: the whole file)")
    ctrl.add_argument("--chunk-bytes", dest="chunk_bytes",
                      type=_positive_int, default=DEFAULT_TRACE_CHUNK_BYTES,
                      metavar="N",
                      help="streaming chunk size for trace files and "
                           f"--track (default: {DEFAULT_TRACE_CHUNK_BYTES})")
    ctrl.add_argument("--seed", type=_non_negative_int,
                      default=REPLAY_DEFAULTS["seed"], help="RNG seed")
    ctrl.add_argument("--channels", type=_positive_int,
                      default=REPLAY_DEFAULTS["channels"])
    ctrl.add_argument("--lanes", type=_positive_int,
                      default=REPLAY_DEFAULTS["lanes"],
                      help="byte lanes per channel (default: %(default)s)")
    ctrl.add_argument("--window", type=_positive_int,
                      default=REPLAY_DEFAULTS["window"],
                      help="streaming-encoder lookahead in bytes "
                           "(default: %(default)s)")
    ctrl.add_argument("--line-bytes", dest="line_bytes", type=_positive_int,
                      default=REPLAY_DEFAULTS["line_bytes"],
                      help="transaction granularity (default: %(default)s)")
    ctrl.add_argument("--interface", nargs="+",
                      choices=available_interfaces(),
                      default=list(REPLAY_DEFAULTS["interfaces"]),
                      help="electrical standard(s) to price the replay at")
    ctrl.add_argument("--data-rate-gbps", dest="data_rate_gbps",
                      type=_positive_float,
                      default=REPLAY_DEFAULTS["data_rate_gbps"],
                      help="per-pin data rate (default: %(default)g)")
    ctrl.add_argument("--c-load-pf", dest="c_load_pf", type=_positive_float,
                      default=REPLAY_DEFAULTS["c_load_pf"],
                      help="lane load capacitance (default: %(default)g)")
    adaptive = ctrl.add_mutually_exclusive_group()
    adaptive.add_argument("--schedule", nargs="+", metavar="IFACE@GBPS[:START]",
                          help="replay once under a DVFS point schedule: "
                               "first point at :0, every later point "
                               "switched in at its :START (see "
                               "--schedule-unit)")
    adaptive.add_argument("--track", nargs="+", metavar="IFACE@GBPS",
                          help="replay once with online alpha/beta tracking "
                               "choosing among these candidate points")
    ctrl.add_argument("--schedule-unit", dest="schedule_unit",
                      choices=["transactions", "address"],
                      default="transactions",
                      help="what :START indexes (default: transactions)")
    ctrl.add_argument("--track-half-life", dest="track_half_life",
                      type=_positive_float, default=DEFAULT_HALF_LIFE_BYTES,
                      metavar="BYTES",
                      help="EWMA half-life of the tracker in committed "
                           "lane bytes (default: "
                           f"{DEFAULT_HALF_LIFE_BYTES:g})")
    _add_engine_arguments(ctrl)
    ctrl.set_defaults(handler=_cmd_ctrl)

    faults = sub.add_parser(
        "faults", help="fault-injection coverage curves across schemes")
    _add_axis_arguments(faults)
    faults.add_argument("--schemes", nargs="+", metavar="SCHEME",
                        choices=available_schemes(),
                        default=list(PAPER_SCHEMES),
                        help="schemes to inject into (default: the paper's "
                             "four)")
    faults.add_argument("--rates", type=_probability, nargs="+", metavar="P",
                        default=list(DEFAULT_FAULT_RATES),
                        help="per-lane-beat fault probabilities")
    faults.add_argument("--fault-seed", dest="fault_seed", type=int,
                        default=7, help="error-mask stream seed (default: 7)")
    faults.set_defaults(handler=_cmd_faults)

    granularity = sub.add_parser(
        "granularity", help="grouped-DBI granularity ablation")
    _add_axis_arguments(granularity)
    granularity.add_argument("--alpha", type=_non_negative_float,
                             default=1.0, help="transition cost (default: 1)")
    granularity.add_argument("--beta", type=_non_negative_float, default=1.0,
                             help="zero-beat cost (default: 1)")
    granularity.add_argument("--group-sizes", dest="group_sizes", type=int,
                             nargs="+", choices=VALID_GROUP_SIZES,
                             default=list(VALID_GROUP_SIZES),
                             help="data lanes per DBI line")
    granularity.set_defaults(handler=_cmd_granularity)

    sso = sub.add_parser(
        "sso", help="rank schemes × interfaces by simultaneous switching")
    _add_axis_arguments(sso)
    sso.add_argument("--schemes", nargs="+", metavar="SCHEME",
                     choices=available_schemes(),
                     default=list(PAPER_SCHEMES),
                     help="schemes to rank (default: the paper's four)")
    sso.add_argument("--interfaces", nargs="+", metavar="NAME",
                     choices=available_interfaces(),
                     default=available_interfaces(),
                     help="interface presets to price the switching at "
                          "(default: all)")
    sso.add_argument("--chained", action="store_true",
                     help="thread bus state across bursts instead of the "
                          "per-burst idle-high boundary")
    sso.add_argument("--threshold", type=_lane_count, default=4, metavar="K",
                     help="report the fraction of beats with more than K "
                          "toggling lanes (default: 4)")
    sso.set_defaults(handler=_cmd_sso)

    serve = sub.add_parser(
        "serve", help="run the experiment query daemon (JSON lines over TCP)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    serve.add_argument("--port", type=_port, default=7351,
                       help="TCP port; 0 binds an ephemeral port "
                            "(default: 7351)")
    _add_cache_dir_argument(serve)
    serve.add_argument("--artifact-dir", dest="artifact_dir", metavar="DIR",
                       default=None,
                       help="directory of artifacts the 'artifact' op may "
                            "serve")
    _add_backend_argument(serve)
    serve.add_argument("--request-timeout", dest="request_timeout",
                       type=_positive_float, default=None,
                       metavar="SECONDS",
                       help="per-request socket deadline; idle or stalled "
                            "connections are dropped (default: none)")
    serve.add_argument("--max-connections", dest="max_connections",
                       type=_non_negative_int, default=64, metavar="N",
                       help="concurrent connection limit — excess clients "
                            "get a retryable busy answer; 0 = unlimited "
                            "(default: 64)")
    serve.set_defaults(handler=_cmd_serve)

    table1 = sub.add_parser("table1", help="Table I synthesis estimates")
    table1.add_argument("--bursts", type=_two_or_more, default=None,
                        metavar="N",
                        help="random bursts for the activity simulation "
                             "(default: 100000 via the bit-parallel "
                             "engine)")
    _add_backend_argument(table1)
    table1.set_defaults(handler=_cmd_table1)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _UsageError as error:
        print(error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
