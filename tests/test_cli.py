"""CLI tests (argument parsing and end-to-end runs on tiny inputs)."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.cli import BATCH_DATASET, build_parser, main

#: The checkout this test file belongs to (``serve`` children import its src/).
REPO_ROOT = Path(__file__).resolve().parents[1]


class TestParser:
    def test_learn_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["learn"])

    def test_learn_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["learn", "--csv", "a.csv", "--network", "alarm"])

    def test_experiment_name_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])

    def test_defaults(self):
        args = build_parser().parse_args(["learn", "--network", "alarm"])
        assert args.method == "fast-bns"
        assert args.alpha == 0.05
        assert args.gs == 1
        assert args.jobs == 1


class TestLearnCommand:
    def test_learn_from_csv(self, tmp_path, capsys, rng):
        m = 400
        x = rng.integers(0, 2, m)
        y = np.where(rng.random(m) < 0.1, 1 - x, x)
        z = rng.integers(0, 2, m)
        path = tmp_path / "data.csv"
        header = "x,y,z"
        np.savetxt(path, np.column_stack([x, y, z]), fmt="%d", delimiter=",", header=header, comments="")
        rc = main(["learn", "--csv", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "skeleton:" in out
        assert "x -- y" in out or "x -> y" in out or "y -> x" in out

    def test_learn_from_network_quiet(self, capsys):
        rc = main(["learn", "--network", "alarm", "--samples", "300", "--scale", "0.3", "--quiet"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CI tests:" in out
        assert "directed edges:" not in out

    def test_learn_from_bif(self, tmp_path, capsys):
        from repro.datasets.bif import write_bif
        from repro.networks.classic import sprinkler

        path = tmp_path / "net.bif"
        path.write_text(write_bif(sprinkler()))
        rc = main(["learn", "--bif", str(path), "--samples", "2000", "--quiet"])
        assert rc == 0
        assert "skeleton:" in capsys.readouterr().out

    def test_learn_with_gs_and_maxdepth(self, capsys):
        rc = main(
            [
                "learn",
                "--network",
                "insurance",
                "--samples",
                "300",
                "--scale",
                "0.4",
                "--gs",
                "4",
                "--max-depth",
                "1",
                "--quiet",
            ]
        )
        assert rc == 0


class TestCsvLoading:
    def test_single_column_csv(self, tmp_path, capsys, rng):
        """np.loadtxt returns 1-D for one column; ndmin=2 must keep the
        loader working instead of crashing in from_rows."""
        path = tmp_path / "one.csv"
        path.write_text("x\n" + "\n".join(str(v) for v in rng.integers(0, 3, 50)) + "\n")
        rc = main(["learn", "--csv", str(path), "--quiet"])
        assert rc == 0
        assert "skeleton: 0 edges" in capsys.readouterr().out

    def test_header_width_mismatch_is_clear_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,z\n0,1\n1,0\n")
        with pytest.raises(ValueError, match="header names 3 column"):
            main(["learn", "--csv", str(path)])

    def test_empty_csv_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("x,y\n")
        with pytest.raises(ValueError, match="no data rows"):
            main(["learn", "--csv", str(path)])


class TestExperimentCommand:
    def test_table2(self, capsys):
        rc = main(["experiment", "table2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "alarm" in out
        assert "munin3" in out
        assert "Table II" in out


class TestBlanketCommand:
    def test_blanket_by_index(self, capsys):
        rc = main(["blanket", "--network", "alarm", "--target", "3", "--samples", "800", "--scale", "0.4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blanket" in out
        assert "overlap:" in out

    def test_blanket_by_name(self, capsys):
        rc = main(
            [
                "blanket",
                "--network",
                "insurance",
                "--target",
                "insurance_2",
                "--samples",
                "600",
                "--scale",
                "0.4",
                "--algorithm",
                "grow-shrink",
            ]
        )
        assert rc == 0
        assert "true blanket" in capsys.readouterr().out

    def test_blanket_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["blanket", "--network", "alarm", "--csv", "a.csv", "--target", "0"]
            )

    def test_blanket_from_csv(self, tmp_path, capsys, rng):
        """--csv parity: no generating network, so no ground-truth lines,
        but the query itself runs through the session layer."""
        m = 500
        x = rng.integers(0, 2, m)
        y = np.where(rng.random(m) < 0.05, 1 - x, x)
        z = rng.integers(0, 2, m)
        path = tmp_path / "data.csv"
        np.savetxt(
            path, np.column_stack([x, y, z]), fmt="%d", delimiter=",",
            header="x,y,z", comments="",
        )
        rc = main(["blanket", "--csv", str(path), "--target", "x"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "blanket (iamb" in out and "y" in out
        assert "true blanket" not in out and "overlap" not in out
        assert "stats cache:" in out

    def test_blanket_from_bif_with_seed(self, tmp_path, capsys):
        from repro.datasets.bif import write_bif
        from repro.networks.classic import sprinkler

        path = tmp_path / "net.bif"
        path.write_text(write_bif(sprinkler()))
        rc = main(
            ["blanket", "--bif", str(path), "--samples", "1500", "--seed", "3",
             "--target", "0"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "blanket (iamb" in out and "m=1500" in out


class TestServeCommand:
    def _write_requests(self, path, requests):
        import json

        path.write_text("".join(json.dumps(r) + "\n" for r in requests))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_serve_end_to_end(self, tmp_path, capsys, threads):
        import json

        reqs = tmp_path / "reqs.jsonl"
        self._write_requests(
            reqs,
            [
                {"op": "learn", "dataset": "a", "alpha": 0.05},
                {"op": "register", "dataset": "b",
                 "source": {"kind": "network", "name": "insurance",
                            "samples": 300, "scale": 0.4}},
                {"op": "learn", "dataset": "b"},
                {"op": "learn", "dataset": "a", "alpha": 0.05},  # hit
                {"op": "learn", "dataset": "a", "gs": 0},  # validation error
                {"op": "learn", "dataset": "ghost"},  # unknown dataset
                {"op": "stats"},
            ],
        )
        out = tmp_path / "out.jsonl"
        man = tmp_path / "manifest.json"
        rc = main(
            ["serve", "--register", "a=network:alarm", "--samples", "300",
             "--requests", str(reqs), "--out", str(out),
             "--manifest", str(man), "--threads", str(threads)]
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 7
        for resp in lines:
            assert (resp["result"] is None) != (resp["error"] is None)
        assert [r["dataset"] for r in lines[:6]] == ["a", "b", "b", "a", "a", "ghost"]
        assert lines[3]["cached"] and lines[3]["result"] == lines[0]["result"]
        assert "gs must be >= 1" in lines[4]["error"]
        assert "unknown dataset" in lines[5]["error"]
        assert lines[6]["result"]["sessions"]["live"] == 2
        doc = json.loads(man.read_text())
        assert doc["totals"]["n_requests"] == 5  # 2 admin ops tracked apart
        assert doc["totals"]["n_errors"] == 2
        assert doc["totals"]["n_result_cache_hits"] == 1

    def test_serve_streams_stdin_stdout(self, capsys, monkeypatch):
        import io
        import json

        stream = "\n".join(
            [
                json.dumps({"op": "learn", "dataset": "a", "max_depth": 1}),
                "this is not json",
                json.dumps({"op": "learn", "dataset": "a", "max_depth": 1}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        rc = main(["serve", "--register", "a=network:alarm", "--samples", "300"])
        assert rc == 0
        captured = capsys.readouterr()
        lines = [json.loads(line) for line in captured.out.splitlines()]
        assert len(lines) == 3
        assert lines[0]["error"] is None
        assert "invalid JSON" in lines[1]["error"]
        assert lines[2]["cached"]
        # The summary must not pollute the JSONL stream on stdout.
        assert "served 3 requests" in captured.err

    def test_serve_summary_counts_emitted_lines_once(self, capsys, monkeypatch):
        """A failed admin op is both an admin request and an unrouted
        error; the summary must count the response line once."""
        import io
        import json

        stream = "\n".join(
            [
                json.dumps({"op": "register", "dataset": "b", "bogus": 1}),
                json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}),
            ]
        )
        monkeypatch.setattr("sys.stdin", io.StringIO(stream + "\n"))
        rc = main(["serve", "--register", "a=network:alarm", "--samples", "300"])
        assert rc == 0
        captured = capsys.readouterr()
        assert len(captured.out.splitlines()) == 2
        assert "served 2 requests" in captured.err

    def test_serve_bad_register_spec_exits(self):
        with pytest.raises(SystemExit, match="ID=KIND:VALUE"):
            main(["serve", "--register", "nonsense"])

    def test_serve_bad_out_path_does_not_leak_requests_file(self, tmp_path, monkeypatch):
        """Regression (ISSUE-5): --out used to be opened outside the try,
        so a bad path leaked the already-opened requests file."""
        import builtins
        import json

        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(json.dumps({"op": "stats"}) + "\n")
        opened = []
        real_open = builtins.open

        def tracking_open(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            if str(file) == str(reqs):
                opened.append(fh)
            return fh

        monkeypatch.setattr(builtins, "open", tracking_open)
        with pytest.raises(FileNotFoundError):
            main(
                ["serve", "--register", "a=network:alarm", "--samples", "300",
                 "--requests", str(reqs),
                 "--out", str(tmp_path / "missing-dir" / "out.jsonl")]
            )
        assert opened and all(fh.closed for fh in opened)

    def test_serve_broken_stdout_pipe_is_clean_exit(self, tmp_path, capsys, monkeypatch):
        """Regression (ISSUE-5): a consumer hanging up on stdout must end
        the run cleanly — manifest and stderr summary still written."""
        import io
        import json

        class BrokenStdout(io.StringIO):
            def write(self, s):
                raise BrokenPipeError(32, "Broken pipe")

        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            "".join(
                json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}) + "\n"
                for _ in range(3)
            )
        )
        man = tmp_path / "manifest.json"
        monkeypatch.setattr("sys.stdout", BrokenStdout())
        rc = main(
            ["serve", "--register", "a=network:alarm", "--samples", "300",
             "--requests", str(reqs), "--manifest", str(man)]
        )
        assert rc == 0
        doc = json.loads(man.read_text())
        assert doc["shutdown"]["reason"] == "broken-pipe"
        assert "served 0 requests" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", [1, 2])
    def test_serve_sigint_mid_stream_writes_manifest(self, tmp_path, capsys, threads):
        """Regression (ISSUE-5): SIGINT used to lose the manifest and the
        summary.  Intake stops, in-flight drains, exit code is 130."""
        import json

        class InterruptingStream:
            """Two good lines, then the signal arrives."""

            def __init__(self):
                self.lines = [
                    json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}) + "\n",
                    json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}) + "\n",
                ]

            def __iter__(self):
                return self

            def __next__(self):
                if not self.lines:
                    raise KeyboardInterrupt
                return self.lines.pop(0)

            def close(self):
                pass

        out = tmp_path / "out.jsonl"
        man = tmp_path / "manifest.json"
        import repro.cli as cli_mod

        real_open = open
        import builtins

        def fake_open(file, *args, **kwargs):
            if str(file) == "fake-requests":
                return InterruptingStream()
            return real_open(file, *args, **kwargs)

        orig = builtins.open
        builtins.open = fake_open
        try:
            rc = cli_mod.main(
                ["serve", "--register", "a=network:alarm", "--samples", "300",
                 "--requests", "fake-requests", "--out", str(out),
                 "--manifest", str(man), "--threads", str(threads)]
            )
        finally:
            builtins.open = orig
        assert rc == 130
        doc = json.loads(man.read_text())
        assert doc["shutdown"]["reason"] == "signal"
        assert doc["totals"]["n_requests"] == 2  # both pre-signal served
        assert "interrupted after" in capsys.readouterr().err

    def test_batch_bad_json_line_is_error_response_not_stream_abort(
        self, tmp_path, capsys
    ):
        """Review fix (ISSUE-5): a malformed line mid-batch used to
        traceback out of the run and lose the manifest; it now becomes
        an ordered error response like in `fastbns serve`."""
        import json

        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            json.dumps({"op": "learn", "max_depth": 0}) + "\n"
            + "{this is not json\n"
            + json.dumps({"op": "learn", "max_depth": 0}) + "\n"
        )
        out = tmp_path / "out.jsonl"
        man = tmp_path / "manifest.json"
        rc = main(
            ["batch", "--network", "alarm", "--samples", "300",
             "--requests", str(reqs), "--out", str(out), "--manifest", str(man)]
        )
        assert rc == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(lines) == 3
        assert lines[0]["error"] is None
        assert "invalid JSON" in lines[1]["error"]
        assert lines[2]["cached"]
        totals = json.loads(man.read_text())["totals"]
        assert totals["n_requests"] == 3 and totals["n_errors"] == 1

    def test_batch_answers_like_single_dataset_serve(self, tmp_path, capsys):
        """`batch --network X` is `serve --register a=network:X`: the same
        answer on every line and the same manifest totals."""
        import json

        reqs = tmp_path / "reqs.jsonl"
        reqs.write_text(
            json.dumps({"op": "learn", "max_depth": 1}) + "\n"
            + "{not json\n"
            + json.dumps({"op": "learn", "gs": 0}) + "\n"
            + json.dumps({"op": "learn", "max_depth": 1}) + "\n"
            + json.dumps({"op": "blanket", "target": "alarm_3"}) + "\n"
            + json.dumps({"op": "blanket", "target": 3, "algorithm": "grow-shrink"}) + "\n"
        )
        runs = {}
        for command, source in (("batch", ["--network", "alarm"]),
                                ("serve", ["--register", "a=network:alarm"])):
            out, man = tmp_path / f"{command}.jsonl", tmp_path / f"{command}.json"
            rc = main([command, *source, "--samples", "300", "--requests", str(reqs),
                       "--out", str(out), "--manifest", str(man)])
            assert rc == 0
            lines = [json.loads(line) for line in out.read_text().splitlines()]
            totals = json.loads(man.read_text())["totals"]
            totals.pop("elapsed_s")
            runs[command] = (lines, totals)
        keys = ("op", "fingerprint", "cached", "result", "error")
        (batch, batch_totals), (serve, serve_totals) = runs["batch"], runs["serve"]
        assert len(batch) == len(serve) == 6
        assert [{k: r[k] for k in keys} for r in batch] == [
            {k: r[k] for k in keys} for r in serve
        ]
        assert [r["dataset"] for r in batch] == [BATCH_DATASET, None] + [BATCH_DATASET] * 4
        assert "invalid JSON" in batch[1]["error"]
        assert "gs must be >= 1" in batch[2]["error"]
        assert batch[3]["cached"] and batch[4]["error"] is None
        assert batch_totals == serve_totals
        assert batch_totals["n_requests"] == 6 and batch_totals["n_errors"] == 2
        assert "served 6 requests" in capsys.readouterr().err

    def test_batch_sigint_mid_stream_writes_manifest(self, tmp_path, capsys, monkeypatch):
        import io
        import json

        class InterruptingStdin(io.StringIO):
            def __init__(self):
                super().__init__(
                    json.dumps({"op": "learn", "max_depth": 0}) + "\n"
                )
                self.served = 0

            def __iter__(self):
                return self

            def __next__(self):
                self.served += 1
                if self.served > 1:
                    raise KeyboardInterrupt
                return json.dumps({"op": "learn", "max_depth": 0}) + "\n"

        out = tmp_path / "out.jsonl"
        man = tmp_path / "manifest.json"
        monkeypatch.setattr("sys.stdin", InterruptingStdin())
        rc = main(
            ["batch", "--network", "alarm", "--samples", "300",
             "--requests", "-", "--out", str(out), "--manifest", str(man)]
        )
        assert rc == 130
        assert json.loads(man.read_text())["totals"]["n_requests"] == 1
        assert len(out.read_text().splitlines()) == 1
        assert "interrupted after 1 requests" in capsys.readouterr().err


class TestServeSubprocess:
    """End-to-end process tests: pipes, signals, sockets.

    These are the ISSUE-5 acceptance shapes — every wait carries a
    timeout so a reintroduced whole-stream buffer (the deadlock this PR
    removes) fails the test instead of hanging the suite.
    """

    STARTUP_S = 60.0

    def _spawn(self, extra, tmp_path):
        import os
        import subprocess
        import sys as _sys

        env = dict(os.environ)
        env["PYTHONPATH"] = "src" + os.pathsep * bool(env.get("PYTHONPATH")) + env.get(
            "PYTHONPATH", ""
        )
        return subprocess.Popen(
            [_sys.executable, "-m", "repro", "serve",
             "--register", "a=network:alarm", "--samples", "300"] + extra,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            cwd=REPO_ROOT,
            text=True,
        )

    def _readline(self, stream, timeout=STARTUP_S):
        """readline with a hard timeout: a hang means the bug is back."""
        from _timeouts import readline_with_timeout

        try:
            return readline_with_timeout(stream, timeout)
        except TimeoutError:
            raise AssertionError("stream stalled: no response within timeout") from None

    def test_lockstep_pipe_threads4_no_deadlock(self, tmp_path):
        """THE acceptance criterion: a producer piping N requests into
        `fastbns serve --threads 4` and reading each response before
        sending the next completes without deadlock."""
        import json

        man = tmp_path / "manifest.json"
        proc = self._spawn(
            ["--threads", "4", "--window", "8", "--manifest", str(man)], tmp_path
        )
        try:
            n = 6
            for i in range(n):
                proc.stdin.write(
                    json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}) + "\n"
                )
                proc.stdin.flush()
                resp = json.loads(self._readline(proc.stdout))
                assert resp["error"] is None
                assert resp["cached"] == (i > 0)
            proc.stdin.close()
            rc = proc.wait(timeout=self.STARTUP_S)
            assert rc == 0
            doc = json.loads(man.read_text())
            assert doc["totals"]["n_requests"] == n
            # Lockstep producer => never more than one request in flight,
            # regardless of the window.
            assert proc.stderr.read().count("served 6 requests") == 1
        finally:
            proc.kill()

    def test_sigint_drains_and_exits_130(self, tmp_path):
        import json
        import signal

        man = tmp_path / "manifest.json"
        proc = self._spawn(["--threads", "2", "--manifest", str(man)], tmp_path)
        try:
            proc.stdin.write(
                json.dumps({"op": "learn", "dataset": "a", "max_depth": 0}) + "\n"
            )
            proc.stdin.flush()
            resp = json.loads(self._readline(proc.stdout))
            assert resp["error"] is None
            proc.send_signal(signal.SIGINT)
            rc = proc.wait(timeout=self.STARTUP_S)
            assert rc == 130
            doc = json.loads(man.read_text())
            assert doc["shutdown"]["reason"] == "signal"
            assert doc["totals"]["n_requests"] == 1
        finally:
            proc.kill()

    def test_listen_socket_end_to_end_sigterm_drain(self, tmp_path):
        """`--listen`: a client learns over TCP, SIGTERM drains the
        transport, the manifest lands, exit code is 143."""
        import json
        import re
        import signal

        from repro.engine import EngineClient

        man = tmp_path / "manifest.json"
        proc = self._spawn(
            ["--listen", "127.0.0.1:0", "--threads", "2", "--window", "8",
             "--manifest", str(man)],
            tmp_path,
        )
        try:
            banner = self._readline(proc.stderr)
            match = re.search(r"listening on (\S+)", banner)
            assert match, f"no listen banner in {banner!r}"
            with EngineClient(match.group(1), timeout=self.STARTUP_S) as client:
                resp = client.learn("a", max_depth=0)
                assert resp["error"] is None
                assert client.learn("a", max_depth=0)["cached"]
            proc.send_signal(signal.SIGTERM)
            rc = proc.wait(timeout=self.STARTUP_S)
            assert rc == 143
            doc = json.loads(man.read_text())
            assert doc["shutdown"]["reason"] == "signal"
            assert doc["shutdown"]["signum"] == int(signal.SIGTERM)
            assert doc["totals"]["n_requests"] == 2
        finally:
            proc.kill()
