"""Command-line interface: ``repro <command>``.

The commands cover the library's workflows:

* ``repro solve`` — read a probability matrix from JSON (a path, or ``-``
  for stdin) and run any solver from the ``repro.solvers`` registry on it
  by name (``--solver NAME``, default the Fig. 1 heuristic; see
  ``repro solvers``).
* ``repro solvers`` — list the solver registry: name, kind, capability
  flags, approximation factor, and paper anchor per entry.
* ``repro simulate`` — run the cellular-network simulation and print the
  link-usage summary.
* ``repro experiments`` — regenerate experiment tables (all or by id, one
  after another), or list the known ids with ``--list``.
* ``repro gadget`` — run the Lemma 3.2 NP-hardness reduction on a list of
  sizes and report whether the optimum hits the lower bound.
* ``repro lint`` — domain-aware static analysis (exact-arithmetic,
  reproducibility, and paper-traceability rules; see docs/linting.md).
* ``repro trace`` — summarize a ``trace.jsonl`` produced by the global
  ``--trace PATH`` flag (see docs/observability.md).

``repro --trace PATH <command> ...`` runs any command under a JSONL tracer:
spans, counters, and paging histograms land in ``PATH`` for ``repro trace``
to read.

JSON input format for ``solve``::

    {"probabilities": [[0.5, 0.3, 0.2], [0.1, 0.4, 0.5]], "max_rounds": 2}
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np


#: One line per subcommand — rendered in the ``--help`` epilog and asserted
#: against the README command table by ``tests/test_cli.py``.
COMMAND_SUMMARY: "dict[str, str]" = {
    "solve": "run any registered solver on a JSON instance by name",
    "solvers": "list the solver registry (kind, capabilities, factor)",
    "simulate": "run the cellular-network simulation (optionally with faults)",
    "experiments": "regenerate experiment tables (all or by id; --list)",
    "gadget": "run the Lemma 3.2 NP-hardness reduction",
    "render": "ASCII map of a network's areas or a plan",
    "lint": "domain-aware static analysis (RPL001, RPL002, RPL004-RPL009)",
    "timevary": "run the joint paging/registration (HMY) iteration",
    "contention": "sweep blocking vs offered load on shared paging channels",
    "trace": "summarize a trace.jsonl written by --trace",
}


def _build_parser() -> argparse.ArgumentParser:
    epilog_lines = ["commands:"] + [
        f"  repro {name:<12} {summary}" for name, summary in COMMAND_SUMMARY.items()
    ]
    epilog_lines.append(
        "\nany command accepts a leading `--trace PATH` to record spans, "
        "counters,\nand paging histograms as JSON lines (docs/observability.md)."
    )
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Conference Call paging under delay constraints "
        "(Bar-Noy & Malewicz, PODC 2002)",
        epilog="\n".join(epilog_lines),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="run the command under a JSONL tracer writing to PATH "
        "(read it back with `repro trace PATH`)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser(
        "solve", help="run any registered solver on a JSON instance"
    )
    solve.add_argument("input", help="path to a JSON instance file, or '-' for stdin")
    solve.add_argument(
        "--solver",
        default="heuristic",
        metavar="NAME",
        help="registry name (list them with `repro solvers`)",
    )
    solve.add_argument("--rounds", type=int, default=None, help="override the delay d")
    solve.add_argument(
        "--bandwidth",
        type=int,
        default=None,
        help="max cells paged per round (solvers with the bandwidth capability)",
    )
    solve.add_argument(
        "--quorum",
        type=int,
        default=None,
        help="devices that must be found (signature/quorum solvers)",
    )
    solve.add_argument(
        "--order",
        default=None,
        metavar="J0,J1,...",
        help="explicit cell order (solvers with the ordered capability)",
    )
    solve.add_argument(
        "--costs",
        default=None,
        metavar="W0,W1,...",
        help="per-cell paging costs (solvers with the weighted capability)",
    )
    solve.add_argument(
        "--output", default=None, help="write the planned strategy to a JSON file"
    )
    solve.add_argument(
        "--json", action="store_true", help="emit the result as JSON on stdout"
    )

    solvers = commands.add_parser(
        "solvers", help="list the solver registry as a capabilities table"
    )
    solvers.add_argument(
        "--kind",
        choices=("exact", "heuristic", "dp", "variant"),
        default=None,
        help="only solvers of this kind",
    )
    solvers.add_argument(
        "--capability",
        default=None,
        metavar="FLAG",
        help="only solvers carrying this capability flag",
    )
    solvers.add_argument(
        "--json", action="store_true", help="emit the registry as JSON on stdout"
    )

    simulate = commands.add_parser("simulate", help="run the cellular simulation")
    simulate.add_argument("--radius", type=int, default=3, help="hex disk radius")
    simulate.add_argument("--devices", type=int, default=6)
    simulate.add_argument("--areas", type=int, default=4, help="location areas")
    simulate.add_argument("--horizon", type=int, default=500, help="time steps")
    simulate.add_argument("--call-rate", type=float, default=0.08)
    simulate.add_argument(
        "--pager", choices=("blanket", "heuristic", "adaptive"), default="heuristic"
    )
    simulate.add_argument(
        "--reporting",
        choices=("never", "always", "la", "distance", "timer"),
        default="la",
    )
    simulate.add_argument("--rounds", type=int, default=3, help="paging delay budget")
    simulate.add_argument(
        "--prior-mode",
        choices=("online", "uniform", "conditional"),
        default="online",
        help="device prior: learned profile, uniform, or belief evolved "
        "from the last successful report (docs/timevary.md)",
    )
    simulate.add_argument(
        "--distance-threshold",
        type=int,
        default=2,
        help="hops that trigger a distance report (with --reporting distance)",
    )
    simulate.add_argument("--seed", type=int, default=2002)
    simulate.add_argument(
        "--page-loss",
        type=float,
        default=0.0,
        help="probability a downlink page is lost (enables the fault engine)",
    )
    simulate.add_argument(
        "--update-loss",
        type=float,
        default=0.0,
        help="probability an uplink location update is lost",
    )
    simulate.add_argument(
        "--stale-after",
        type=int,
        default=None,
        metavar="STEPS",
        help="distrust confirmed registry fixes older than STEPS",
    )
    simulate.add_argument(
        "--outage",
        action="append",
        default=None,
        metavar="CELL:START:END",
        help="schedule a cell outage (repeatable)",
    )
    simulate.add_argument(
        "--retries",
        type=int,
        default=1,
        help="re-page retries under faults (exponential backoff, within --rounds)",
    )

    experiments = commands.add_parser(
        "experiments", help="regenerate experiment tables"
    )
    experiments.add_argument(
        "ids", nargs="*", help="experiment ids (default: run everything)"
    )
    experiments.add_argument(
        "--list", action="store_true", help="list known experiment ids and exit"
    )

    gadget = commands.add_parser(
        "gadget", help="run the Lemma 3.2 reduction on comma-separated sizes"
    )
    gadget.add_argument("sizes", help="e.g. 3,1,2,2,1,3 (count divisible by 3)")

    render = commands.add_parser(
        "render", help="ASCII map of a hexagonal network's areas or a plan"
    )
    render.add_argument("--radius", type=int, default=3, help="hex disk radius")
    render.add_argument("--areas", type=int, default=4, help="location areas")
    render.add_argument(
        "--plan",
        default=None,
        help="optionally: JSON instance file; renders its heuristic strategy",
    )
    render.add_argument("--rounds", type=int, default=3)
    render.add_argument("--seed", type=int, default=2002)

    from .lint.engine import add_lint_arguments

    lint = commands.add_parser(
        "lint", help="run the static-analysis rules (RPL001, RPL002, RPL004-RPL009)"
    )
    add_lint_arguments(lint)

    timevary = commands.add_parser(
        "timevary",
        help="pick the registration threshold against re-planned paging (HMY)",
    )
    timevary.add_argument("--radius", type=int, default=3, help="hex disk radius")
    timevary.add_argument(
        "--kind",
        choices=("timer", "distance"),
        default="timer",
        help="registration policy family to optimize",
    )
    timevary.add_argument(
        "--candidates",
        default=None,
        metavar="T1,T2,...",
        help="threshold candidates (default 2,5,10,20 timer / 1,2,3,4 distance)",
    )
    timevary.add_argument(
        "--model",
        choices=("walk", "gravity", "waypoint"),
        default="gravity",
        help="mobility model whose kernel drives belief propagation",
    )
    timevary.add_argument(
        "--stay", type=float, default=0.4, help="random-walk stay probability"
    )
    timevary.add_argument("--rounds", type=int, default=3, help="paging delay budget")
    timevary.add_argument("--call-rate", type=float, default=0.08)
    timevary.add_argument(
        "--report-cost",
        type=float,
        default=1.0,
        help="uplink cost of one location update, relative to one page",
    )
    timevary.add_argument(
        "--samples",
        type=int,
        default=20_000,
        help="trace length for empirically-estimated kernels (waypoint)",
    )
    timevary.add_argument("--seed", type=int, default=2026)

    contention = commands.add_parser(
        "contention",
        help="heavy-traffic sweep: concurrent call setups on finite channels",
    )
    contention.add_argument(
        "--radius", type=int, default=2, help="hex disk radius"
    )
    contention.add_argument(
        "--devices", type=int, default=8, help="devices in the network"
    )
    contention.add_argument(
        "--areas", type=int, default=3, help="location areas"
    )
    contention.add_argument(
        "--horizon", type=int, default=400, help="steps to simulate per point"
    )
    contention.add_argument(
        "--loads",
        default="0.25,0.5,1.0,1.5",
        metavar="R1,R2,...",
        help="offered loads (Poisson call arrivals per step)",
    )
    contention.add_argument(
        "--carriers",
        default="1,2,4",
        metavar="K1,K2,...",
        help="paging carriers per cell to sweep",
    )
    contention.add_argument(
        "--capacity",
        type=int,
        default=1,
        help="page slots per cell per round per carrier",
    )
    contention.add_argument(
        "--max-wait",
        type=int,
        default=8,
        help="starved steps before a pending call is blocked",
    )
    contention.add_argument(
        "--rounds", type=int, default=3, help="paging delay budget per call"
    )
    contention.add_argument("--seed", type=int, default=29)

    from .obs.report import add_trace_arguments

    trace = commands.add_parser(
        "trace", help="summarize a trace.jsonl produced by `repro --trace PATH`"
    )
    add_trace_arguments(trace)

    return parser


def _load_instance(path: str):
    from .core import PagingInstance

    if path == "-":
        payload = json.load(sys.stdin)
    else:
        with open(path) as handle:
            payload = json.load(handle)
    if "probabilities" not in payload:
        raise SystemExit("input JSON needs a 'probabilities' matrix")
    matrix = np.asarray(payload["probabilities"], dtype=float)
    max_rounds = int(payload.get("max_rounds", min(2, matrix.shape[1])))
    return PagingInstance.from_array(matrix, max_rounds, allow_zero=True)


def _command_solve(args: argparse.Namespace) -> int:
    from .core.serialization import save
    from .solvers import UnknownSolverError, get_solver

    try:
        solver = get_solver(args.solver)
    except UnknownSolverError as error:
        raise SystemExit(str(error))
    instance = _load_instance(args.input)
    if args.rounds is not None:
        instance = instance.with_max_rounds(args.rounds)
    options: "dict[str, object]" = {}
    if args.bandwidth is not None:
        options["max_group_size"] = args.bandwidth
    if args.quorum is not None:
        options["quorum"] = args.quorum
    if args.order is not None:
        try:
            options["order"] = tuple(int(part) for part in args.order.split(","))
        except ValueError:
            raise SystemExit(f"--order wants comma-separated integers, got {args.order!r}")
    if args.costs is not None:
        try:
            options["costs"] = tuple(float(part) for part in args.costs.split(","))
        except ValueError:
            raise SystemExit(f"--costs wants comma-separated numbers, got {args.costs!r}")
    try:
        result = solver(instance, **options)
    except TypeError as error:
        raise SystemExit(str(error))
    spec = solver.spec
    groups = None
    if result.strategy is not None:
        groups = [sorted(group) for group in result.strategy.groups]
    if args.json:
        exact = result.expected_paging_fraction
        payload = {
            "schema": "repro-solve/1",
            "solver": spec.name,
            "kind": spec.kind,
            "capabilities": sorted(spec.capabilities),
            "expected_paging": result.expected_paging_float,
            "expected_paging_exact": None if exact is None else str(exact),
            "wall_time_s": result.wall_time_s,
            "groups": groups,
        }
        print(json.dumps(payload, indent=2))
    else:
        print(
            f"instance: m={instance.num_devices} devices, c={instance.num_cells} "
            f"cells, d={instance.max_rounds} rounds"
        )
        print(f"solver: {spec.name} ({spec.kind}) — {spec.summary}")
        if groups is not None:
            for round_index, group in enumerate(groups, start=1):
                print(f"  round {round_index}: page cells {group}")
        objective = result.extras.get("objective", "expected paging")
        print(
            f"{objective}: {result.expected_paging_float:.4f}"
            + ("" if result.expected_paging_fraction is None
               else f" (= {result.expected_paging_fraction})")
        )
    if args.output:
        if result.strategy is None:
            raise SystemExit(
                f"solver {spec.name!r} returns a value, not a strategy; "
                "nothing to write"
            )
        save(result.strategy, args.output)
        if not args.json:
            print(f"strategy written to {args.output}")
    return 0


def _command_solvers(args: argparse.Namespace) -> int:
    from .solvers import list_solvers

    specs = list_solvers(kind=args.kind, capability=args.capability)
    if args.json:
        payload = {
            "schema": "repro-solvers/1",
            "count": len(specs),
            "solvers": [spec.to_json() for spec in specs],
        }
        print(json.dumps(payload, indent=2))
        return 0
    if not specs:
        print("no registered solvers match the filters")
        return 1
    rows = []
    for spec in specs:
        requires = ",".join(spec.required) or "-"
        caps = ",".join(sorted(spec.capabilities)) or "-"
        factor = f"{spec.factor:.4f}" if spec.factor is not None else "-"
        rows.append((spec.name, spec.kind, caps, factor, requires, spec.anchor))
    header = ("name", "kind", "capabilities", "factor", "requires", "anchor")
    widths = [
        max(len(header[i]), max(len(row[i]) for row in rows))
        for i in range(len(header) - 1)
    ]
    def fmt(row):
        lead = "  ".join(row[i].ljust(widths[i]) for i in range(len(widths)))
        return f"{lead}  {row[-1]}"
    print(fmt(header))
    for row in rows:
        print(fmt(row))
    print(f"\n{len(specs)} solvers (details: `repro solvers --json`)")
    return 0


def _parse_outages(specs):
    from .cellnet import CellOutage

    outages = []
    for spec in specs or ():
        parts = spec.split(":")
        if len(parts) != 3:
            raise SystemExit(f"--outage wants CELL:START:END, got {spec!r}")
        try:
            cell, start, end = (int(part) for part in parts)
        except ValueError:
            raise SystemExit(f"--outage wants integers, got {spec!r}")
        outages.append(CellOutage(cell=cell, start=start, end=end))
    return tuple(outages)


def _command_simulate(args: argparse.Namespace) -> int:
    from .cellnet import (
        CellTopology,
        CellularSimulator,
        FaultModel,
        GravityMobility,
        LocationAreaPlan,
        RecoveryPolicy,
        SimulationConfig,
    )

    rng = np.random.default_rng(args.seed)
    topology = CellTopology.hexagonal_disk(args.radius)
    plan = LocationAreaPlan.by_bfs(topology, args.areas)
    attraction = np.random.default_rng(args.seed + 1).uniform(
        0.5, 3.0, size=topology.num_cells
    )
    models = [GravityMobility(topology, attraction) for _ in range(args.devices)]
    faults = FaultModel(
        page_loss=args.page_loss,
        update_loss=args.update_loss,
        stale_after=args.stale_after,
        outages=_parse_outages(args.outage),
    )
    config = SimulationConfig(
        horizon=args.horizon,
        call_rate=args.call_rate,
        max_paging_rounds=args.rounds,
        reporting=args.reporting,
        pager=args.pager,
        prior_mode=args.prior_mode,
        distance_threshold=args.distance_threshold,
        faults=None if faults.is_zero else faults,
        recovery=None if faults.is_zero else RecoveryPolicy(max_retries=args.retries),
    )
    simulator = CellularSimulator(topology, plan, models, config, rng=rng)
    report = simulator.run()
    print(
        f"network: {topology.num_cells} cells, {args.areas} location areas, "
        f"{args.devices} devices, horizon {args.horizon}"
    )
    for key, value in report.summary().items():
        print(f"  {key:>20}: {value:.2f}")
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS, main as run

    if args.list:
        print("\n".join(EXPERIMENTS))
    else:
        print(run(args.ids or None))
    return 0


def _command_gadget(args: argparse.Namespace) -> int:
    from .hardness import (
        reduce_quasipartition1_to_conference_call,
        solve_quasipartition1,
    )
    from .solvers import get_solver

    try:
        sizes = [Fraction(part.strip()) for part in args.sizes.split(",")]
    except ValueError as error:
        raise SystemExit(f"could not parse sizes: {error}")
    witness = solve_quasipartition1(sizes)
    reduction = reduce_quasipartition1_to_conference_call(sizes)
    optimum = get_solver("exact")(reduction.instance)
    hits = optimum.expected_paging == reduction.lower_bound
    print(f"sizes: {[str(size) for size in sizes]}")
    print(f"quasipartition witness: {witness}")
    print(f"lower bound LB = {reduction.lower_bound} ({float(reduction.lower_bound):.6f})")
    print(f"optimal EP     = {optimum.expected_paging} ({float(optimum.expected_paging):.6f})")
    print(f"EP == LB (iff a quasipartition exists): {hits}")
    if hits:
        print(f"first paged group encodes the subset: {reduction.witness_from_strategy(optimum.strategy)}")
    return 0


def _command_render(args: argparse.Namespace) -> int:
    from .cellnet import (
        CellTopology,
        LocationAreaPlan,
        render_location_areas,
        render_strategy,
        strategy_summary,
    )

    topology = CellTopology.hexagonal_disk(args.radius)
    plan = LocationAreaPlan.by_bfs(topology, args.areas)
    print(f"network: {topology.num_cells} cells in a radius-{args.radius} hex disk")
    print(render_location_areas(topology, plan))
    if args.plan is not None:
        from .solvers import get_solver

        instance = _load_instance(args.plan)
        if instance.num_cells != topology.num_cells:
            raise SystemExit(
                f"instance has {instance.num_cells} cells; the rendered network "
                f"has {topology.num_cells} (adjust --radius)"
            )
        result = get_solver("heuristic")(
            instance.with_max_rounds(min(args.rounds, instance.num_cells))
        )
        print()
        print(render_strategy(topology, result.strategy))
        print()
        print(strategy_summary(result.strategy))
        print(f"expected paging: {float(result.expected_paging):.4f} cells")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .lint.engine import run_from_args

    return run_from_args(args)


def _command_timevary(args: argparse.Namespace) -> int:
    from .cellnet import (
        CellTopology,
        GravityMobility,
        RandomWalk,
        RandomWaypoint,
        hmy_fixed_point,
        transition_matrix,
    )
    from .errors import SimulationError

    topology = CellTopology.hexagonal_disk(args.radius)
    rng = np.random.default_rng(args.seed)
    if args.model == "walk":
        model = RandomWalk(topology, stay_probability=args.stay)
    elif args.model == "gravity":
        attraction = np.random.default_rng(args.seed + 1).uniform(
            0.5, 3.0, size=topology.num_cells
        )
        model = GravityMobility(topology, attraction)
    else:
        model = RandomWaypoint(topology)
    matrix = transition_matrix(
        model, topology, rng=rng, samples=args.samples
    )
    if args.candidates is not None:
        try:
            candidates = [int(part) for part in args.candidates.split(",")]
        except ValueError as error:
            raise SystemExit(f"could not parse candidates: {error}")
    elif args.kind == "timer":
        candidates = [2, 5, 10, 20]
    else:
        candidates = [1, 2, 3, 4]
    try:
        result = hmy_fixed_point(
            topology,
            matrix,
            kind=args.kind,
            candidates=candidates,
            max_rounds=args.rounds,
            call_rate=args.call_rate,
            report_cost=args.report_cost,
        )
    except SimulationError as error:
        raise SystemExit(str(error))
    print(
        f"network: {topology.num_cells} cells  mobility: {args.model}  "
        f"policy: {args.kind} over {candidates}"
    )
    for step in result.trajectory:
        print(
            f"  iter {step.iteration} ({step.phase:>12}): threshold "
            f"{step.evaluation.threshold:>3}  cost {step.evaluation.combined_cost:.6f}  "
            f"(paging/call {step.evaluation.paging_per_call:.3f}, "
            f"report-rate {step.evaluation.report_rate:.4f})"
        )
    status = "converged" if result.converged else "iteration cap reached"
    print(
        f"fixed point: {args.kind} threshold {result.threshold} at combined "
        f"cost {result.evaluation.combined_cost:.6f} ({status})"
    )
    return 0


def _command_contention(args: argparse.Namespace) -> int:
    from .experiments import run_e29_contention

    def parse_list(text, cast, flag):
        try:
            return [cast(part) for part in text.split(",") if part.strip()]
        except ValueError as error:
            raise SystemExit(f"could not parse {flag}: {error}")

    loads = parse_list(args.loads, float, "--loads")
    carriers = parse_list(args.carriers, int, "--carriers")
    if not loads or not carriers:
        raise SystemExit("--loads and --carriers each need at least one value")
    table = run_e29_contention(
        loads,
        carriers,
        radius=args.radius,
        num_devices=args.devices,
        num_areas=args.areas,
        horizon=args.horizon,
        channel_capacity=args.capacity,
        max_rounds=args.rounds,
        max_wait=args.max_wait,
        seed=args.seed,
    )
    print(table.render())
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from .obs.report import run_from_args

    return run_from_args(args)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point (also installed as the ``repro`` console script)."""
    args = _build_parser().parse_args(argv)
    handlers = {
        "solve": _command_solve,
        "solvers": _command_solvers,
        "simulate": _command_simulate,
        "experiments": _command_experiments,
        "gadget": _command_gadget,
        "render": _command_render,
        "lint": _command_lint,
        "timevary": _command_timevary,
        "contention": _command_contention,
        "trace": _command_trace,
    }
    handler = handlers[args.command]
    if args.trace is not None:
        from .obs import JsonlSink, Tracer, use_tracer

        with use_tracer(Tracer(JsonlSink(args.trace))):
            status = handler(args)
        print(f"trace written to {args.trace}", file=sys.stderr)
        return status
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
