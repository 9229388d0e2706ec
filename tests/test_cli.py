"""CLI tests (in-process: call main with argv)."""

import pytest

from repro.cli import (
    EXIT_CRASH,
    EXIT_OVERLOAD,
    EXIT_QUERY,
    EXIT_RESOURCE,
    EXIT_USAGE,
    exit_code_for,
    main,
)
from repro.storage import CRASH_POINTS


class TestDemo:
    def test_runs(self, capsys):
        assert main(["demo", "--scale", "0.005"]) == 0
        out = capsys.readouterr().out
        assert "minimum investment per part" in out
        assert "strategy comparison" in out
        assert "cs+nonlinear" in out


class TestSql:
    def test_inline_statement(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005",
                "-c", "select wid, sum(inv) from invest group by wid",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "wid" in out
        assert "rows]" in out

    def test_explain_flag(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005", "--explain",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        assert "Scan(" in capsys.readouterr().out

    def test_file_input(self, tmp_path, capsys):
        script = tmp_path / "queries.sql"
        script.write_text(
            "select wid, sum(inv) from invest group by wid;\n"
            "select tid, min(inv) from invest group by tid\n"
        )
        rc = main(["sql", "--scale", "0.005", "-f", str(script)])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("mpf>") == 2

    def test_no_statements_is_usage_error(self, capsys):
        assert main(["sql"]) == EXIT_USAGE

    def test_cost_budget_exceeded_exits_resource(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005", "--cost-budget", "1",
                "-c", "select wid, sum(inv) from invest group by wid",
            ]
        )
        assert rc == EXIT_RESOURCE
        assert "error:" in capsys.readouterr().err

    def test_generous_guard_flags_still_succeed(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005",
                "--timeout", "3600", "--memory-limit", "100000",
                "-c", "select wid, sum(inv) from invest group by wid",
            ]
        )
        assert rc == 0
        assert "rows]" in capsys.readouterr().out

    def test_bad_sql_reports_error(self, capsys):
        rc = main(["sql", "--scale", "0.005", "-c", "select banana"])
        assert rc == EXIT_QUERY
        assert "error:" in capsys.readouterr().err

    def test_explain_json_flag(self, capsys):
        import json

        from repro.obs import validate_explain_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--explain-json",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        doc_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith('{"')
        ]
        assert len(doc_lines) == 1
        doc = json.loads(doc_lines[0])
        validate_explain_document(doc)
        assert doc["execution"]["totals"]["page_reads"] > 0

    def test_metrics_json_flag(self, capsys):
        import json

        from repro.obs import validate_metrics_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--metrics-json",
                "-c", "select cid, sum(inv) from invest group by cid",
                "-c", "select wid, sum(inv) from invest group by wid",
            ]
        )
        assert rc == 0
        # The metrics document is the last stdout line, pipeable into
        # ``python -m repro.obs.validate -``.
        last = capsys.readouterr().out.splitlines()[-1]
        doc = json.loads(last)
        validate_metrics_document(doc)
        assert doc["metrics"]["queries.total{status=ok}"]["value"] == 2

    def test_trace_json_flag(self, capsys):
        import json

        from repro.obs import validate_trace_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--trace-json",
                "-c", "select cid, sum(inv) from invest group by cid",
                "-c", "select wid, sum(inv) from invest group by wid",
            ]
        )
        assert rc == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(last)
        validate_trace_document(doc)
        assert doc["name"] == "cli.sql"
        assert [e["request_id"] for e in doc["requests"]] == [
            "stmt-0000", "stmt-0001",
        ]
        for entry in doc["requests"]:
            names = [c["name"] for c in entry["root"]["children"]]
            assert "execute" in names

    def test_metrics_text_flag(self, capsys):
        from repro.obs import parse_metrics_text

        rc = main(
            [
                "sql", "--scale", "0.005", "--metrics-text",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        start = out.index("# TYPE")
        samples = parse_metrics_text(out[start:])
        assert {s["family"] for s in samples} >= {
            "queries_total", "bufferpool_reads",
        }

    def test_calibrate_flag(self, capsys):
        import json

        from repro.obs import validate_explain_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--calibrate",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        doc_lines = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("{")
        ]
        assert len(doc_lines) == 1
        doc = json.loads(doc_lines[0])
        validate_explain_document(doc)
        assert doc["calibration"]["plan_q_error"] >= 1.0
        # The CLI audits plan choice, so candidates must be present.
        audit = doc["calibration"]["audit"]
        assert audit is not None
        assert any(c["chosen"] for c in audit["candidates"])

    def test_calibrate_with_explain_json_prints_one_analyze_document(
        self, capsys
    ):
        import json

        from repro.obs import validate_explain_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--calibrate", "--explain-json",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.splitlines()
        (line,) = [line for line in lines if line.startswith("{")]
        doc = json.loads(line)
        validate_explain_document(doc)
        assert doc["execution"]["operators"]
        rows = int(lines[lines.index(line) + 1].split("; ")[1].split()[0])
        assert doc["plan"]["actual"]["rows"] == rows
        assert doc["plan"]["q_error"] >= 1.0
        assert doc["calibration"]["audit"]["plan_regret"] >= 1.0

    def test_calibrate_select_gets_one_trace_request(self, capsys):
        import json

        from repro.obs import validate_trace_document

        rc = main(
            [
                "sql", "--scale", "0.005", "--calibrate", "--trace-json",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        validate_trace_document(doc)
        (entry,) = doc["requests"]
        assert entry["request_id"] == "stmt-0000"
        names = [c["name"] for c in entry["root"]["children"]]
        assert "execute" in names

    def test_calibrate_select_is_recorded_and_resumed(
        self, tmp_path, capsys
    ):
        q = "select cid, sum(inv) from invest group by cid"
        argv = ["sql", "--scale", "0.005", "--calibrate",
                "--checkpoint-dir", str(tmp_path), "-c", q]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main([*argv, "--resume"]) == 0
        resumed = capsys.readouterr().out
        assert "1 recorded statement(s)" in resumed
        # The recovered rows are the calibrated run's rows.
        head = first.split("\n{")[0].split("\n", 1)[1]
        assert f"{head}\n[recovered; " in resumed

    def test_calibrate_with_explain_annotates_plan(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005", "--calibrate", "--explain",
                "-c", "select cid, sum(inv) from invest group by cid",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "act=" in out
        assert "q=" in out

    def test_calibrate_reports_bind_errors_like_plain_sql(self, capsys):
        codes, errors = [], []
        for flags in ([], ["--calibrate"]):
            codes.append(main(
                ["sql", "--scale", "0.005", *flags,
                 "-c", "select wid, or(inv) from invest group by wid"]
            ))
            errors.append(capsys.readouterr().err)
        assert codes == [3, 3]
        assert errors[0] == errors[1] != ""

    def test_create_view_statement(self, capsys):
        rc = main(
            [
                "sql", "--scale", "0.005",
                "-c",
                "create mpfview twotab as (select pid, wid, "
                "measure = (* location.quantity, contracts.price) "
                "from location, contracts)",
                "-c", "select wid, sum(f) from twotab group by wid",
            ]
        )
        assert rc == 0
        assert "created" in capsys.readouterr().out


class TestCrashPoints:
    """Every registered crash point lies on the ``repro sql`` path: a
    crash there ends the run with the dedicated crash code."""

    Q1 = "select cid, sum(inv) from invest group by cid"
    Q2 = "select wid, sum(inv) from invest group by wid"

    def _crash(self, tmp_path, *flags):
        return main([
            "sql", "--scale", "0.004", "--checkpoint-dir", str(tmp_path),
            *flags, "-c", self.Q1, "-c", self.Q2,
        ])

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_every_crash_point_fires(self, tmp_path, point):
        assert self._crash(tmp_path, "--crash-at", point) == EXIT_CRASH

    def test_seeded_crash_fires(self, tmp_path):
        rc = self._crash(tmp_path, "--seed", "0", "--crash-at", "seeded")
        assert rc == EXIT_CRASH


class TestExperiments:
    def test_table2(self, capsys):
        assert main(["table2", "--n-tables", "4", "--domain", "5"]) == 0
        out = capsys.readouterr().out
        assert "nonlinear CS+" in out
        assert "VE(deg) ext." in out

    def test_table3(self, capsys):
        assert main(
            ["table3", "--n-tables", "4", "--domain", "5", "--runs", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "VE(random)" in out
        assert "VE(random) ext." in out


class TestInference:
    def test_runs(self, capsys):
        assert main(["inference"]) == 0
        out = capsys.readouterr().out
        assert "Pr(C=0 | A=0) = 0.9000" in out


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


class TestExitCodeFamilies:
    def test_distinct_nonzero_codes_per_family(self):
        from repro import errors as E
        from repro.cli import (
            EXIT_PLAN,
            EXIT_STORAGE,
            EXIT_WORKLOAD,
        )

        cases = {
            E.QueryTimeout("t"): EXIT_RESOURCE,
            E.MemoryLimitExceeded("m"): EXIT_RESOURCE,
            E.QueryCancelled("c"): EXIT_RESOURCE,
            E.TransientStorageError("s"): EXIT_STORAGE,
            E.PermanentStorageError("p"): EXIT_STORAGE,
            E.StorageError("s"): EXIT_STORAGE,
            E.WorkloadError("w"): EXIT_WORKLOAD,
            E.AcyclicityError("a"): EXIT_WORKLOAD,
            E.PlanError("p"): EXIT_PLAN,
            E.OptimizationError("o"): EXIT_PLAN,
            E.QueryError("q"): EXIT_QUERY,
            E.ParseError("p"): EXIT_QUERY,
            E.CatalogError("c"): EXIT_QUERY,
            E.MPFError("base"): 1,
            E.SemiringError("s"): 1,
        }
        for exc, expected in cases.items():
            assert exit_code_for(exc) == expected, type(exc).__name__
        assert all(code != 0 for code in cases.values())


class TestPartitionFlagMatrix:
    """--partition TABLE=KEY:N validation is a usage error (exit 2)."""

    @pytest.mark.parametrize("spec", [
        "location=wid:0", "location=wid:-1", "location=wid:-3",
    ])
    def test_subunit_shard_count_is_usage_error(self, spec, capsys):
        code = main(["sql", "--partition", spec, "-c", "select 1"])
        assert code == EXIT_USAGE
        assert "shard count must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", [
        "locationwid:3", "location=wid", "location=wid:three", "=wid:3",
    ])
    def test_malformed_spec_is_usage_error(self, spec, capsys):
        code = main(["sql", "--partition", spec, "-c", "select 1"])
        assert code == EXIT_USAGE


class TestWorkerFaultFlags:
    """Faults on a multi-worker run come from the fault-rate flags; the
    engine injects no worker (task) faults, so no flag configures one."""

    QUERY = "select wid, sum(inv) from invest group by wid"

    def test_recovered_fault_run_succeeds_with_valid_metrics(self, capsys):
        import json

        from repro.obs.export import validate_metrics_document

        code = main([
            "sql", "--workers", "2",
            "--partition", "location=wid:4",
            "--partition", "warehouses=wid:4",
            "--fault-transient-rate", "0.2", "--metrics-json",
            "-c", self.QUERY,
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        validate_metrics_document(doc)
        metrics = doc["metrics"]
        assert metrics["faults.transient"]["value"] >= 1
        assert metrics["query.retries"]["value"] == \
            metrics["faults.transient"]["value"]

    @pytest.mark.parametrize("argv", [
        ["--fault-worker", "bogus"],
        ["--fault-worker", "crash:x"],
        ["--fault-worker", "crash:-1"],
        ["--fault-worker-rate", "0.5", "--fault-worker-kinds", "crash,bogus"],
        ["--task-retries", "-1"],
    ])
    def test_bad_fault_flags_are_usage_errors(self, argv, capsys):
        # No such flags: the parser rejects them before any data is
        # generated, with the usage exit code.
        with pytest.raises(SystemExit) as exc:
            main(["sql", *argv, "-c", "select 1"])
        assert exc.value.code == EXIT_USAGE
        assert "unrecognized arguments" in capsys.readouterr().err


class TestServe:
    ARGS = ["serve", "--scale", "0.004", "--mix", "12"]

    def test_default_soak_succeeds(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serving soak" in out
        assert "gold:" in out and "bulk:" in out
        assert "plan cache:" in out

    def test_overload_error_exit_code(self):
        from repro.errors import OverloadError

        assert exit_code_for(OverloadError("x", reason="rate")) == \
            EXIT_OVERLOAD

    def test_forced_shed_exits_overload(self, capsys):
        code = main([
            *self.ARGS, "--tenant", "only,queue=0", "--fail-on-shed",
        ])
        assert code == EXIT_OVERLOAD
        assert "shed under overload" in capsys.readouterr().err

    def test_shed_without_flag_is_success(self, capsys):
        assert main([*self.ARGS, "--tenant", "only,queue=0"]) == 0
        assert "12 shed" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--tenant", "bad,nope=1"],
        ["--tenant", "priority=2"],
        ["--tenant", "t,slots=0"],
        ["--reload-at", "location"],
        ["--reload-at", "location@soon"],
        ["--mix", "0"],
        ["--workers", "0"],
    ])
    def test_bad_flags_are_usage_errors(self, argv, capsys):
        assert main(["serve", *argv]) == EXIT_USAGE

    def test_reload_and_metrics_json(self, capsys):
        import json

        from repro.obs.export import validate_metrics_document

        code = main([
            *self.ARGS, "--reload-at", "location@2e5", "--metrics-json",
        ])
        assert code == 0
        out = capsys.readouterr().out
        doc = json.loads(out.strip().splitlines()[-1])
        validate_metrics_document(doc)
        assert doc["name"] == "cli.serve"
        assert doc["metrics"]["serve.reloads"]["value"] == 1
        # Requests span both epochs.
        assert "epochs served: [5, 6]" in out

    def test_soak_is_deterministic(self, capsys):
        argv = [*self.ARGS, "--reload-at", "location@2e5", "--metrics-json"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    def test_trace_json_flag(self, capsys):
        import json

        from repro.obs import validate_trace_document

        code = main([
            *self.ARGS, "--reload-at", "location@2e5", "--trace-json",
        ])
        assert code == 0
        last = capsys.readouterr().out.strip().splitlines()[-1]
        doc = json.loads(last)
        validate_trace_document(doc)
        assert doc["name"] == "cli.serve"
        assert doc["clock"] == "virtual"
        assert len(doc["requests"]) == 12
        assert any(e["name"] == "reload" for e in doc["events"])
        for entry in doc["requests"]:
            if entry["status"] == "ok":
                kinds = [c["kind"] for c in entry["root"]["children"]]
                assert kinds[:2] == ["admission", "queue"]
                assert "dispatch" in kinds

    def test_metrics_json_stays_last_line_with_trace(self, capsys):
        import json

        from repro.obs import validate_metrics_document

        code = main([*self.ARGS, "--trace-json", "--metrics-json"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        validate_metrics_document(json.loads(lines[-1]))
        trace = json.loads(lines[-2])
        assert trace["schema"] == "repro.trace.v1"

    def test_metrics_text_to_stdout(self, capsys):
        from repro.obs import parse_metrics_text

        code = main([*self.ARGS, "--metrics-text"])
        assert code == 0
        out = capsys.readouterr().out
        start = out.index("# TYPE")
        samples = parse_metrics_text(out[start:])
        families = {s["family"] for s in samples}
        assert "serve_admitted" in families
        assert "serve_slo_latency_p50" in families

    def test_metrics_text_to_file(self, tmp_path):
        from repro.obs import validate_metrics_text

        target = tmp_path / "metrics.prom"
        assert main([*self.ARGS, "--metrics-text", str(target)]) == 0
        assert validate_metrics_text(target.read_text()) > 0


class TestTop:
    ARGS = ["top", "--scale", "0.004", "--mix", "12"]

    def test_renders_per_tenant_slo_table(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "serving soak" in out
        assert "TENANT" in out and "BURN" in out
        assert "gold" in out and "bulk" in out

    def test_is_deterministic(self, capsys):
        assert main(self.ARGS) == 0
        first = capsys.readouterr().out
        assert main(self.ARGS) == 0
        assert capsys.readouterr().out == first

    def test_shares_serve_workload_flags(self, capsys):
        code = main([
            *self.ARGS, "--reload-at", "location@2e5",
            "--tenant", "gold,priority=2,slo=6e5,objective=0.9",
            "--tenant", "bulk,queue=2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "gold" in out and "bulk" in out

    def test_usage_errors_match_serve(self, capsys):
        assert main(["top", "--mix", "0"]) == EXIT_USAGE
        assert main(["top", "--tenant", "t,bogus=1"]) == EXIT_USAGE


# Every subcommand's options as (dest, default, metavar, choices),
# taken from the parser before its shared option groups existed: the
# groups may reorder --help, never add, drop or change a flag.
FLAGS_BY_SUBCOMMAND = {
    "demo": {
        ("scale", 0.01, None, None),
        ("seed", 42, None, None),
        ("strategy", "auto", None, None),
    },
    "sql": {
        ("audit_max_tables", 6, "N", None),
        ("calibrate", False, None, None),
        ("checkpoint_dir", None, "DIR", None),
        ("command", None, None, None),
        ("cost_budget", None, "UNITS", None),
        ("crash_at", None, "POINT[:N]", None),
        ("explain", False, None, None),
        ("explain_json", False, None, None),
        ("fault_permanent_rate", 0.0, "P", None),
        ("fault_transient_rate", 0.0, "P", None),
        ("file", None, None, None),
        ("limit", 10, None, None),
        ("memory_limit", None, "PAGES", None),
        ("metrics_json", False, None, None),
        ("metrics_text", None, "PATH", None),
        ("partition", None, "TABLE=KEY:N", None),
        ("resume", False, None, None),
        ("scale", 0.01, None, None),
        ("seed", 42, None, None),
        ("strategy", "auto", None, None),
        ("timeout", None, "SECONDS", None),
        ("trace_json", False, None, None),
        ("workers", 1, None, None),
    },
    "serve": {
        ("arrival_gap", 50000.0, "UNITS", None),
        ("drain", "finish", None, ("finish", "shed")),
        ("fail_on_shed", False, None, None),
        ("metrics_json", False, None, None),
        ("metrics_text", None, "PATH", None),
        ("mix", 40, "N", None),
        ("partition", None, "TABLE=KEY:N", None),
        ("reload_at", None, "TABLE@TIME", None),
        ("scale", 0.01, None, None),
        ("seed", 42, None, None),
        ("strategy", "auto", None, None),
        ("tenant", None, "SPEC", None),
        ("trace_json", False, None, None),
        ("workers", 1, None, None),
    },
    "top": {
        ("arrival_gap", 50000.0, "UNITS", None),
        ("drain", "finish", None, ("finish", "shed")),
        ("metrics_text", None, "PATH", None),
        ("mix", 40, "N", None),
        ("partition", None, "TABLE=KEY:N", None),
        ("reload_at", None, "TABLE@TIME", None),
        ("scale", 0.01, None, None),
        ("seed", 42, None, None),
        ("strategy", "auto", None, None),
        ("tenant", None, "SPEC", None),
        ("workers", 1, None, None),
    },
    "table2": {
        ("domain", 10, None, None),
        ("n_tables", 5, None, None),
    },
    "table3": {
        ("domain", 10, None, None),
        ("n_tables", 5, None, None),
        ("runs", 10, None, None),
    },
    "inference": set(),
}


def _flag_table():
    from repro.cli import build_parser

    subcommands = build_parser()._subparsers._group_actions[0].choices
    return {
        name: {
            (a.dest, a.default, a.metavar,
             tuple(a.choices) if a.choices else None)
            for a in sub._actions if a.dest != "help"
        }
        for name, sub in subcommands.items()
    }


def test_no_subcommand_gains_or_loses_a_flag():
    assert _flag_table() == FLAGS_BY_SUBCOMMAND


SQL_Q = ["-c", "select cid, sum(inv) from invest group by cid"]


class TestBadFlagValues:
    """Every bad flag value is a usage error: exit 2, one stderr line,
    no traceback, and no data generated first."""

    @pytest.mark.timeout(30)
    @pytest.mark.parametrize("argv", [
        ["demo", "--scale", "nan"],
        ["sql", "--scale", "nan", *SQL_Q],
        ["sql", "--scale", "0", *SQL_Q],
        ["sql", "--scale", "-1", *SQL_Q],
        ["sql", "--scale", "inf", *SQL_Q],
        ["sql", "--fault-transient-rate", "2", *SQL_Q],
        ["sql", "--fault-permanent-rate", "nan", *SQL_Q],
        ["sql", "--workers", "0", *SQL_Q],
        ["sql", "--crash-at", "nowhere", *SQL_Q],
        ["sql", "--crash-at", "batch.query:x", *SQL_Q],
        ["sql", "--timeout", "-1", *SQL_Q],
        ["sql", "--timeout", "nan", *SQL_Q],
        ["sql", "--cost-budget", "-1", *SQL_Q],
        ["sql", "--memory-limit", "-3", *SQL_Q],
        ["serve", "--arrival-gap", "-1"],
        ["serve", "--arrival-gap", "nan"],
        ["serve", "--reload-at", "ctdeals@nan"],
        ["serve", "--reload-at", "location@inf"],
        ["serve", "--tenant", "gold,slo=-1"],
        ["serve", "--scale", "nan"],
        ["serve", "--workers", "0"],
        ["top", "--arrival-gap", "nan"],
        ["top", "--tenant", "gold,slo=0"],
        ["top", "--workers", "0"],
        ["serve", "--mix", "-1"],
        ["sql", "--crash-at", "batch.query:-1", *SQL_Q],
        ["sql", "--fault-transient-rate", "-0.5", *SQL_Q],
        ["sql", "--limit", "-1", *SQL_Q],
        ["sql", "--audit-max-tables", "-1", *SQL_Q],
        ["serve", "--tenant", "gold,rate=nan"],
    ])
    def test_exits_usage_with_one_line(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1, err
        assert "Traceback" not in err
