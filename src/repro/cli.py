"""An interactive shell for PEMS: DDL, Serena SQL, SAL and inspection.

Run ``python -m repro`` for an interactive session, or
``python -m repro script.serena`` to execute a script.  Statements:

* Serena DDL — ``PROTOTYPE``, ``EXTENDED RELATION/STREAM``, ``SERVICE``,
  ``INSERT INTO``, ``DELETE FROM`` (terminated by ``;``);
* ``SELECT ...;`` — a one-shot Serena SQL query, evaluated now;
* ``REGISTER <name> AS SELECT ...;`` — register a continuous SQL query;
* dot-commands (single line, no semicolon):

  ========================  ==========================================
  ``.help``                 this text
  ``.catalog``              prototypes, services, relations, queries
  ``.show <relation>``      print a relation's instantaneous contents
  ``.tick [n]``             advance the virtual clock by n instants
  ``.queries``              list registered continuous queries
  ``.result <name>``        last result of a continuous query
  ``.actions <name>``       cumulative action set of a continuous query
  ``.explain SELECT ...``   the compiled plan of a SQL query
  ``.explain physical ...`` the lowered physical plan (executor classes,
                            shared/private markers)
  ``.substitutions``        declared substitution rules, active rebinds,
                            the failover table and the rebind history
  ``.analyze [name]``       EXPLAIN ANALYZE of registered continuous
                            queries: per-executor cumulative run stats
  ``.metrics [json]``       the metrics registry, always recording
                            (Prometheus text, or a JSON snapshot with
                            ``json``)
  ``.profile SELECT ...``   run the query; per-operator tuple counts
  ``.optimize SELECT ...``  the plan before/after the §3.3 pushdown
                            fixpoint, and the rules that fired
  ``.sal <expr>``           evaluate a Serena Algebra Language expression
  ``.rule head(x) :- ...``  evaluate a conjunctive-calculus rule
  ``.demo temperature|rss`` load a ready-made §5.2 scenario; ``.demo
                            substitution`` adds a scripted permanent
                            sensor crash with a declared spare (§13);
                            ``.demo city`` loads the generated
                            smart-city scenario (§14).  An optional
                            trailing engine — ``naive`` or ``shared``
                            (default) — picks how queries run, e.g.
                            ``.demo city naive``
  ``.city <config> [eng]``  build a city from a ``.json``/``.toml``
                            :class:`CityConfig` file on either engine
  ``.serve [port [n [ms]]]`` serve continuous-query deltas over TCP/SSE:
                            tick every ``ms`` milliseconds (default 100)
                            for ``n`` instants (default: until Ctrl-C);
                            clients register queries by SQL over JSONL
                            or subscribe via ``GET /subscribe?sql=…``
  ``.quit``                 leave
  ========================  ==========================================

The shell is deliberately free of simulation magic: without ``.demo`` you
get an empty PEMS, and DDL ``SERVICE`` statements only *declare* services
(implementations must be bound programmatically — or use a demo scenario).
"""

from __future__ import annotations

import sys
from typing import Callable, TextIO

from repro.errors import SerenaError
from repro.lang.sal import parse_query
from repro.lang.sql import compile_sql
from repro.pems.pems import PEMS

__all__ = ["SerenaShell", "main"]

_DDL_KEYWORDS = ("PROTOTYPE", "EXTENDED", "SERVICE", "INSERT", "DELETE")


class SerenaShell:
    """Statement dispatcher over one PEMS instance."""

    def __init__(self, pems: PEMS | None = None, out: TextIO | None = None):
        self.pems = pems if pems is not None else PEMS()
        self.out = out if out is not None else sys.stdout
        self._scenario = None
        self._running = True
        self._commands: dict[str, Callable[[str], None]] = {
            "help": self._cmd_help,
            "catalog": self._cmd_catalog,
            "show": self._cmd_show,
            "tick": self._cmd_tick,
            "queries": self._cmd_queries,
            "result": self._cmd_result,
            "actions": self._cmd_actions,
            "explain": self._cmd_explain,
            "substitutions": self._cmd_substitutions,
            "analyze": self._cmd_analyze,
            "metrics": self._cmd_metrics,
            "profile": self._cmd_profile,
            "optimize": self._cmd_optimize,
            "sal": self._cmd_sal,
            "rule": self._cmd_rule,
            "demo": self._cmd_demo,
            "city": self._cmd_city,
            "serve": self._cmd_serve,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }

    # -- output -----------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        print(text, file=self.out)

    @property
    def running(self) -> bool:
        return self._running

    # -- statement dispatch ---------------------------------------------------------

    def execute(self, statement: str) -> None:
        """Execute one statement (dot-command or ';'-terminated text)."""
        statement = statement.strip()
        if not statement:
            return
        try:
            if statement.startswith("."):
                self._dispatch_command(statement)
            else:
                self._dispatch_statement(statement)
        except SerenaError as exc:
            self._print(f"error: {exc}")

    def _dispatch_command(self, line: str) -> None:
        name, _, argument = line[1:].partition(" ")
        handler = self._commands.get(name.lower())
        if handler is None:
            self._print(f"unknown command .{name} — try .help")
            return
        handler(argument.strip())

    def _dispatch_statement(self, statement: str) -> None:
        head = statement.split(None, 1)[0].upper()
        if head == "SELECT":
            self._run_sql(statement)
        elif head == "REGISTER":
            self._register(statement)
        elif head in _DDL_KEYWORDS:
            results = self.pems.execute_ddl(statement)
            for result in results:
                self._print(f"ok: {result!r}")
        else:
            self._print(
                f"unrecognized statement {head!r} — "
                "expected SELECT, REGISTER or DDL; try .help"
            )

    # -- statement handlers ------------------------------------------------------------

    def _run_sql(self, text: str) -> None:
        result = self.pems.queries.execute_sql(text)
        self._print(result.relation.to_table())
        if result.actions:
            self._print(f"actions: {result.actions}")

    def _register(self, text: str) -> None:
        rest = text.split(None, 1)[1] if " " in text else ""
        name, _, body = rest.partition(" ")
        body = body.strip()
        if not name or not body.upper().startswith("AS "):
            self._print("usage: REGISTER <name> AS SELECT ...;")
            return
        sql = body[3:].strip().rstrip(";")
        self.pems.queries.register_continuous_sql(sql, name=name)
        self._print(f"registered continuous query {name!r}")

    # -- dot-commands --------------------------------------------------------------------

    def _cmd_help(self, argument: str) -> None:
        self._print(__doc__ or "")

    def _cmd_catalog(self, argument: str) -> None:
        self._print(self.pems.describe())

    def _cmd_show(self, argument: str) -> None:
        if not argument:
            self._print("usage: .show <relation>")
            return
        relation = self.pems.environment.instantaneous(
            argument, self.pems.clock.now
        )
        self._print(relation.to_table())

    def _cmd_tick(self, argument: str) -> None:
        try:
            instants = int(argument) if argument else 1
        except ValueError:
            self._print("usage: .tick [n]")
            return
        self.pems.run(instants)
        self._print(f"now at instant {self.pems.clock.now}")

    def _cmd_queries(self, argument: str) -> None:
        queries = self.pems.queries.continuous_queries
        if not queries:
            self._print("(no continuous queries registered)")
        for name in sorted(queries):
            self._print(f"{name}: {queries[name].query.render()}")

    def _cmd_result(self, argument: str) -> None:
        continuous = self.pems.queries.continuous_query(argument)
        if continuous.last_result is None:
            self._print("(not evaluated yet — .tick first)")
            return
        self._print(continuous.last_result.relation.to_table())

    def _cmd_actions(self, argument: str) -> None:
        continuous = self.pems.queries.continuous_query(argument)
        actions = continuous.actions
        self._print(actions.describe() if actions else "(no actions yet)")

    def _cmd_explain(self, argument: str) -> None:
        from repro.lang.printer import explain, explain_physical

        head, _, rest = argument.partition(" ")
        physical = head.lower() == "physical"
        if physical:
            argument = rest.strip()
        if not argument:
            self._print("usage: .explain [physical] SELECT ...")
            return
        query = compile_sql(argument.rstrip(";"), self.pems.environment)
        if physical:
            self._print(explain_physical(query, self.pems.queries.shared))
        else:
            self._print(explain(query))

    def _cmd_substitutions(self, argument: str) -> None:
        report = self.pems.erm.substitution_report()
        if not report["rules"]:
            self._print("(no substitution rules declared)")
            return
        self._print(f"epoch {report['epoch']}")
        self._print("rules:")
        for rule in report["rules"]:
            self._print(f"  {rule}")
        if report["bindings"]:
            self._print("active bindings:")
            for key, plan in report["bindings"].items():
                self._print(f"  {key} -> {plan}")
        else:
            self._print("(no active bindings)")
        if report["failover"]:
            self._print("failover table:")
            for key, plans in report["failover"].items():
                self._print(f"  {key}: {'; '.join(plans)}")
        if report["history"]:
            self._print("rebind history:")
            for line in report["history"]:
                self._print(f"  {line}")

    def _cmd_analyze(self, argument: str) -> None:
        from repro.lang.printer import explain_analyze

        queries = self.pems.queries.continuous_queries
        if argument:
            names = [argument]
        elif queries:
            names = sorted(queries)
        else:
            self._print("(no continuous queries registered)")
            return
        for position, name in enumerate(names):
            if position:
                self._print()
            continuous = self.pems.queries.continuous_query(name)
            self._print(explain_analyze(continuous))

    def _cmd_metrics(self, argument: str) -> None:
        if argument.lower() == "json":
            import json

            self._print(json.dumps(self.pems.obs.snapshot(), indent=2))
            return
        if argument:
            self._print("usage: .metrics [json]")
            return
        self._print(self.pems.obs.to_prometheus().rstrip("\n"))

    def _cmd_profile(self, argument: str) -> None:
        query = compile_sql(argument.rstrip(";"), self.pems.environment)
        profile = query.profile(self.pems.environment, self.pems.clock.now)
        self._print(profile.render())
        self._print(profile.result.relation.to_table())

    def _cmd_optimize(self, argument: str) -> None:
        from repro.algebra.rewriting import RewriteTrace, rewrite_fixpoint
        from repro.lang.printer import explain

        query = compile_sql(argument.rstrip(";"), self.pems.environment)
        trace = RewriteTrace()
        pushed = rewrite_fixpoint(query, trace=trace)
        self._print("-- compiled plan --")
        self._print(explain(query))
        self._print("-- pushdown fixpoint --")
        self._print(explain(pushed))
        self._print(f"rules fired: {', '.join(trace.steps) or 'none'}")

    def _cmd_sal(self, argument: str) -> None:
        query = parse_query(argument.rstrip(";"), self.pems.environment)
        result = self.pems.queries.execute(query)
        self._print(result.relation.to_table())
        if result.actions:
            self._print(f"actions: {result.actions}")

    def _cmd_rule(self, argument: str) -> None:
        from repro.lang.datalog import compile_rule

        query = compile_rule(argument, self.pems.environment)
        result = self.pems.queries.execute(query)
        self._print(result.relation.to_table())

    def _cmd_demo(self, argument: str) -> None:
        from repro.devices.scenario import (
            build_rss_scenario,
            build_temperature_surveillance,
        )

        name, _, engine = argument.partition(" ")
        engine = engine.strip() or "shared"
        if name == "temperature":
            self._scenario = build_temperature_surveillance(engine=engine)
        elif name == "substitution":
            from repro.devices.faults import FaultScript
            from repro.model.invocation_policy import InvocationPolicy
            from repro.model.substitution import SubstitutionRule

            # The TUTORIAL §11 walkthrough: sensor22 dies for good at
            # instant 20; a spare environmental station on the roof stands
            # in via a ``specializes`` projection.  ``.tick 25`` then
            # ``.substitutions`` shows the rebind.
            self._scenario = build_temperature_surveillance(
                engine=engine,
                policy=InvocationPolicy(failure_threshold=1),
                sensor_faults={"sensor22": FaultScript(crash_at=20)},
                spare_sensors=(("spare-roof", "roof", 15.5),),
                substitutions=(
                    SubstitutionRule(
                        "getTemperature",
                        "spare-roof",
                        "getEnvReading",
                        reference="sensor22",
                    ),
                ),
            )
        elif name == "rss":
            self._scenario = build_rss_scenario(engine=engine)
        elif name == "city":
            from repro.city.config import DEMO_CITY
            from repro.city.scenario import build_city

            self._scenario = build_city(DEMO_CITY, engine=engine)
        else:
            self._print(
                "usage: .demo temperature|substitution|rss|city [naive|shared]"
            )
            return
        self.pems = self._scenario.pems
        self._print(
            f"loaded the {name} scenario (engine={engine}) "
            f"({len(self.pems.environment.registry)} services, "
            f"{len(self.pems.environment.relation_names)} relations); "
            ".tick to advance"
        )

    def _cmd_city(self, argument: str) -> None:
        from repro.city.config import CityConfig
        from repro.city.scenario import build_city

        path, _, engine = argument.partition(" ")
        if not path:
            self._print("usage: .city <config.json|config.toml> [naive|shared]")
            return
        try:
            config = CityConfig.load(path)
        except OSError as exc:
            self._print(f"error: cannot read {path!r} — {exc}")
            return
        engine = engine.strip() or "shared"
        self._scenario = build_city(config, engine=engine)
        self.pems = self._scenario.pems
        topology = self._scenario.topology
        cascade = config.cascade
        cascade_note = (
            f"; cascade: station crash at τ={cascade.crash_at} "
            f"in zone {config.zones[cascade.zone]!r}"
            if cascade is not None
            else ""
        )
        self._print(
            f"built city {config.name!r} (engine={engine}): "
            f"{len(topology)} devices across {len(config.zones)} zones, "
            f"{len(self._scenario.queries)} standing queries, "
            f"topology digest {topology.digest()[:12]}{cascade_note}; "
            ".tick to advance"
        )

    def _cmd_serve(self, argument: str) -> None:
        import asyncio

        from repro.server import SubscriptionServer

        parts = argument.split()
        try:
            port = int(parts[0]) if parts else 0
            ticks = int(parts[1]) if len(parts) > 1 else 0
            interval = (
                float(parts[2]) / 1000.0 if len(parts) > 2 else 0.1
            )
        except ValueError:
            self._print("usage: .serve [port [ticks [interval_ms]]]")
            return

        async def _serve() -> dict:
            server = SubscriptionServer(self.pems, port=port)
            await server.start()
            self._print(
                f"serving on 127.0.0.1:{server.port} — JSONL ops per "
                "line, or GET /subscribe?sql=… for SSE; Ctrl-C to stop"
            )
            remaining = ticks if ticks > 0 else None
            try:
                while remaining is None or remaining > 0:
                    server.tick()
                    if remaining is not None:
                        remaining -= 1
                    await asyncio.sleep(interval)
            finally:
                await server.shutdown()
            return server.summary()

        try:
            summary = asyncio.run(_serve())
        except KeyboardInterrupt:
            self._print("\nserver stopped")
            return
        self._print(
            f"served {summary['messages_sent']} delta messages over "
            f"{summary['instant']} instants "
            f"({summary['queries']} queries at shutdown)"
        )

    def _cmd_quit(self, argument: str) -> None:
        self._running = False

    # -- script execution ------------------------------------------------------------------

    def run_script(self, text: str) -> None:
        """Execute a script: dot-commands are one per line, other
        statements run until their terminating ``;``."""
        for statement in split_statements(text):
            self.execute(statement)
            if not self._running:
                break


def split_statements(text: str) -> list[str]:
    """Split script text into statements.

    Lines starting with ``.`` are single statements; ``--`` comments are
    dropped; anything else accumulates until a ``;`` outside a string
    literal.
    """
    splitter = _StatementSplitter()
    statements = [s for line in text.splitlines() for s in splitter.feed(line)]
    if splitter.pending:
        statements.append(splitter.pending)
    return statements


class _StatementSplitter:
    """The splitting rule of :func:`split_statements`, fed one line at a
    time, so the interactive shell splits exactly as a script does."""

    def __init__(self) -> None:
        self._buffer: list[str] = []
        self._in_string = False

    @property
    def pending(self) -> str:
        """The unterminated statement so far."""
        return "".join(self._buffer).strip()

    def feed(self, raw_line: str) -> list[str]:
        """The statements that ``raw_line`` completes."""
        line = raw_line if self._in_string else _strip_comment(raw_line)
        stripped = line.strip()
        if not self._in_string and not self.pending:
            self._buffer = []  # drop stray whitespace between statements
            if not stripped:
                return []
            if stripped.startswith("."):
                return [stripped]
        statements: list[str] = []
        for ch in line:
            self._buffer.append(ch)
            if ch == "'":
                self._in_string = not self._in_string
            elif ch == ";" and not self._in_string:
                statements.append(self.pending)
                self._buffer = []
        self._buffer.append("\n")
        return statements


def _strip_comment(line: str) -> str:
    # naive but safe enough: '--' inside string literals is rare in scripts;
    # quote-aware scan keeps it correct.
    out = []
    in_string = False
    i = 0
    while i < len(line):
        ch = line[i]
        if ch == "'":
            in_string = not in_string
        if not in_string and line.startswith("--", i):
            break
        out.append(ch)
        i += 1
    return "".join(out)


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro``."""
    argv = list(sys.argv[1:] if argv is None else argv)
    shell = SerenaShell()
    if argv:
        with open(argv[0], encoding="utf-8") as handle:
            shell.run_script(handle.read())
        return 0
    print("Serena shell — .help for commands, .quit to leave")
    splitter = _StatementSplitter()
    while shell.running:
        try:
            line = input("   ...> " if splitter.pending else "serena> ")
        except EOFError:
            shell.execute(splitter.pending)  # the unterminated tail, as in a script
            break
        for statement in splitter.feed(line):
            shell.execute(statement)
            if not shell.running:
                break
    return 0
