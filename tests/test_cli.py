from __future__ import annotations

import csv
import os
import resource
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import sccd
from sccd import engine, graphs
from sccd.cli import MAX_CHECK_NODES, main
from sccd.engine import InternalCorrectnessError, Mode, _run
from sccd.generators import gen_barabasi_albert
from sccd.graphs import MAX_NODES, Digraph, EdgeListError, serialize_edge_list

from conftest import PAIR_CHAIN_TEXT
from history import render_history
from reference_engine import reference_run
from reference_parse import parse_lines
from tables import GOLDEN_PAIR_CHAIN, render_golden


@pytest.fixture
def chain_file(tmp_path):
    p = tmp_path / "chain.txt"
    p.write_text(PAIR_CHAIN_TEXT + "\n")
    return str(p)


def test_scc_command(chain_file, capsys):
    assert main(["scc", chain_file, "--base", "1"]) == 0
    out = capsys.readouterr().out
    assert "component: 1 2" in out
    assert "component: 3 4" in out
    assert "component: 5 6" in out
    assert "rounds: 2 2 3 4 5 6" in out
    assert "diameter: 5" in out


def test_scc_output_forms_partition(chain_file, capsys):
    main(["scc", chain_file, "--base", "1"])
    out = capsys.readouterr().out
    members = []
    for line in out.splitlines():
        if line.startswith("component: "):
            members.extend(int(t) for t in line.split()[1:])
    assert sorted(members) == list(range(1, 7))


def test_scc_single_node(tmp_path, capsys):
    p = tmp_path / "one.txt"
    p.write_text("# nodes: 1\n")
    assert main(["scc", str(p)]) == 0
    out = capsys.readouterr().out
    assert "component: 0" in out


def test_scc_malformed_file_exits_2(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("1 2\nbogus line here\n")
    assert main(["scc", str(p)]) == 2
    assert "line 2" in capsys.readouterr().err


def test_scc_missing_file_exits_2(tmp_path, capsys):
    assert main(["scc", str(tmp_path / "absent.txt")]) == 2


def test_node_count_above_cap_exits_2(tmp_path, capsys):
    p = tmp_path / "huge.txt"
    for text in ("# nodes: 1000000000000\n0 1\n", "0 1\n1 16777216\n"):
        p.write_text(text)
        for cmd in ("scc", "diameter", "trace"):
            assert main([cmd, str(p)]) == 2
            assert "limit of 16777216" in capsys.readouterr().err


def test_late_directive_below_an_earlier_id_exits_2(tmp_path, capsys):
    p = tmp_path / "late.txt"
    p.write_text("5 6\n# nodes: 3\n")
    for cmd in ("scc", "diameter", "trace"):
        assert main([cmd, str(p)]) == 2
        assert "line 2: declared node count 3 is too small" in capsys.readouterr().err


def test_component_above_mask_limit_exits_2(tmp_path, capsys):
    # A path of 65,537 nodes is one weakly connected component whose reach
    # masks could take more than 2**32 bits; the engine refuses it before
    # allocating any mask.
    p = tmp_path / "path.txt"
    p.write_text("".join(f"{i} {i + 1}\n" for i in range(65_536)))
    assert main(["scc", str(p)]) == 2
    assert "largest weakly connected component has 65537 nodes" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["run", "assemble_partition", "render_result", "trace_table"])
@pytest.mark.parametrize("error", [ValueError, IndexError])
def test_engine_fault_exits_3(chain_file, capsys, monkeypatch, name, error):
    def broken(*args, **kwargs):
        raise error("engine bug")

    monkeypatch.setattr(f"sccd.cli.{name}", broken)
    cmd = "trace" if name == "trace_table" else "scc"
    assert main([cmd, chain_file, "--base", "1"]) == 3
    assert "internal correctness violation" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--global-rounds"]])
def test_exit_3_messages_name_the_mode(chain_file, capsys, monkeypatch, flags):
    mode = "global-rounds" if flags else "per-node-freeze"

    def broken(*args, **kwargs):
        raise InternalCorrectnessError("engine bug")

    for name, commands in (
        ("assemble_partition", ["scc"]), ("run", ["scc", "diameter"]), ("trace_table", ["trace"])
    ):
        with monkeypatch.context() as m:
            m.setattr(f"sccd.cli.{name}", broken)
            for cmd in commands:
                assert main([cmd, chain_file, "--base", "1", *flags]) == 3
                err = capsys.readouterr().err
                assert err == f"internal correctness violation in {mode} mode: engine bug\n"
    monkeypatch.setattr("sccd.cli.floyd_warshall_diameter", lambda g: -1)
    assert main(["diameter", chain_file, "--base", "1", "--check", *flags]) == 3
    err = capsys.readouterr().err
    assert err == f"check failed in {mode} mode: floyd-warshall reports -1\n"


def test_diameter_command(chain_file, capsys):
    assert main(["diameter", chain_file, "--base", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "5"


def test_diameter_check_agrees(chain_file, capsys):
    assert main(["diameter", chain_file, "--base", "1", "--check"]) == 0
    assert "check ok" in capsys.readouterr().out


def test_diameter_check_above_node_limit_exits_2(tmp_path, capsys, monkeypatch):
    # Floyd-Warshall's matrix would take about 80 GB for this two-line file.
    p = tmp_path / "wide.txt"
    p.write_text("# nodes: 100000\n0 1\n")

    def no_run(*args, **kwargs):
        raise AssertionError("the engine ran before --check was refused")

    monkeypatch.setattr("sccd.cli.run", no_run)
    assert main(["diameter", str(p), "--check"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"limited to {MAX_CHECK_NODES} nodes" in captured.err


def test_diameter_edgeless(tmp_path, capsys):
    p = tmp_path / "edgeless.txt"
    p.write_text("# nodes: 4\n")
    assert main(["diameter", str(p)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "0"


def test_trace_command_reproduces_worked_table(chain_file, capsys):
    assert main(["trace", chain_file, "--base", "1", "--global-rounds"]) == 0
    assert capsys.readouterr().out == render_golden(GOLDEN_PAIR_CHAIN, base=1)


@pytest.mark.parametrize("flags", [[], ["--global-rounds"]])
def test_trace_above_entry_limit_exits_2(tmp_path, capsys, monkeypatch, flags):
    # The limit counts the characters written, and is checked before each
    # round.  Set one short of the end of round k of a 30-node cycle's table,
    # it refuses round k and leaves rounds 0 to k - 1 written in whole; the
    # header goes out with round 0.  The full table is the reference engine's
    # history, rendered.  `sccd scc` on the same file is not limited.
    edges = [(v, (v + 1) % 30) for v in range(30)]
    p = tmp_path / "cycle.txt"
    p.write_text("".join(f"{u} {v}\n" for u, v in edges))
    mode = Mode.GLOBAL_ROUNDS if flags else Mode.PER_NODE_FREEZE
    _, history = reference_run(Digraph.from_edges(30, edges), mode)
    lines = render_history(history).splitlines(keepends=True)
    assert len(lines) == 1 + 4 * 31
    rounds = ["".join(lines[:5])] + ["".join(lines[i:i + 4]) for i in range(5, len(lines), 4)]
    for k in (5, 0):
        limit = len("".join(rounds[:k + 1])) - 1
        monkeypatch.setattr("sccd.engine.MAX_TRACE_CHARS", limit)
        assert main(["trace", str(p), *flags]) == 2
        assert capsys.readouterr() == ("".join(rounds[:k]), (
            f"error: the trace of this graph passes the limit of {limit} characters "
            f"in round {k}\n"
        ))
        assert main(["scc", str(p), *flags]) == 0
        capsys.readouterr()
    monkeypatch.undo()
    assert main(["trace", str(p), *flags]) == 0
    assert capsys.readouterr().out == "".join(lines)


def test_mode_flag_is_refused(chain_file, tmp_path, capsys):
    # --global-rounds is the one switch for the engine mode.
    bench = ["bench", "--family", "er", "--seed", "1", "--out", str(tmp_path / "b.csv")]
    for argv in (["scc", chain_file], ["diameter", chain_file], ["trace", chain_file], bench):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--mode", "global-rounds"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --mode global-rounds" in capsys.readouterr().err
    assert not (tmp_path / "b.csv").exists()


def test_default_mode_is_per_node_freeze(chain_file, capsys):
    main(["scc", chain_file, "--base", "1"])
    out = capsys.readouterr().out
    assert "rounds: 2 2 3 4 5 6" in out  # per-node counts, not a flat 6


def test_gen_er_writes_expected_edge_count(tmp_path, capsys):
    out = tmp_path / "er.txt"
    assert main(["gen", "er", "--n", "100", "--m", "22", "--seed", "3",
                 "--out", str(out)]) == 0
    data_lines = [
        l for l in out.read_text().splitlines() if l and not l.startswith("#")
    ]
    assert len(data_lines) == 22


def test_gen_is_deterministic(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    main(["gen", "ws", "--n", "30", "--k", "4", "--p", "0.2", "--seed", "9",
          "--out", str(a)])
    main(["gen", "ws", "--n", "30", "--k", "4", "--p", "0.2", "--seed", "9",
          "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_odd_ws_k(capsys):
    assert main(["gen", "ws", "--n", "10", "--k", "3", "--p", "0.2",
                 "--seed", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_gen_er_requires_m(capsys):
    assert main(["gen", "er", "--n", "10", "--seed", "0"]) == 2


def test_scc_identical_invocations_byte_identical(chain_file, capsys):
    main(["scc", chain_file, "--base", "1"])
    first = capsys.readouterr().out
    main(["scc", chain_file, "--base", "1"])
    assert capsys.readouterr().out == first


def test_bench_command_writes_csv_and_manifest(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    assert main(["bench", "--family", "er", "--param-set", "1",
                 "--sizes", "20", "25", "--replicates", "2",
                 "--seed", "4", "--out", str(out)]) == 0
    rows = list(csv.reader(out.open()))
    assert len(rows) == 1 + 4
    manifest = out.with_suffix(".manifest.txt")
    assert manifest.exists()
    assert "seed: 4" in manifest.read_text()


def test_untraced_commands_build_no_views(chain_file, tmp_path, capsys, monkeypatch):
    # scc, diameter and bench read the run's masks, and trace writes its rows
    # from them; only a read of RunResult.final builds NodeState views.
    def outputs():
        seen = []
        for flags in ([], ["--global-rounds"]):
            for cmd in ("scc", "diameter", "trace"):
                assert main([cmd, chain_file, "--base", "1", *flags]) == 0
                seen.append(capsys.readouterr().out)
        out = tmp_path / "er.csv"
        assert main(["bench", "--family", "er", "--sizes", "20", "--replicates", "2",
                     "--seed", "4", "--out", str(out)]) == 0
        seen.append(capsys.readouterr().out)
        seen.append([{c: v for c, v in row.items() if not c.startswith("t_")}
                     for row in csv.DictReader(out.open())])
        return seen

    expected = outputs()

    def no_views(*args, **kwargs):
        raise AssertionError("a NodeState view was built")

    monkeypatch.setattr("sccd.engine.NodeState", no_views)
    assert outputs() == expected


@pytest.mark.parametrize(
    "argv", [["scc"], ["diameter"], ["diameter", "--check"], ["trace"]], ids=" ".join
)
def test_commands_run_the_rounds_once_without_counting(chain_file, capsys, monkeypatch, argv):
    # No output of these commands reads element_ops, so a per-node-freeze
    # run neither counts in its rounds nor replays them to count.
    counts = []

    def rounds(g, mode, observe=None):
        counts.append(isinstance(observe, engine._ElementOps))
        return _run(g, mode, observe)

    monkeypatch.setattr(engine, "_run", rounds)
    assert main([*argv, chain_file, "--base", "1"]) == 0
    assert counts == [False]


def test_bench_diameter_suite_honours_global_rounds(tmp_path, capsys):
    rows = {}
    for mode, flags in (("per-node-freeze", []), ("global-rounds", ["--global-rounds"])):
        out = tmp_path / f"{mode}.csv"
        assert main(["bench", "--diameter-suite", "--seed", "3", "--out", str(out), *flags]) == 0
        assert f"engine mode: {mode}" in out.with_suffix(".manifest.txt").read_text()
        rows[mode] = [
            {c: v for c, v in row.items() if not c.startswith("t_")}
            for row in csv.DictReader(out.open())
        ]
    freeze, global_rounds = rows["per-node-freeze"], rows["global-rounds"]
    assert len(freeze) == len(global_rounds) == 30
    assert any(a["element_ops"] != b["element_ops"] for a, b in zip(freeze, global_rounds))
    for a, b in zip(freeze, global_rounds):
        del a["element_ops"], b["element_ops"]
    assert freeze == global_rounds


def test_bench_requires_family_or_suite(tmp_path, capsys):
    assert main(["bench", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2


@pytest.mark.parametrize("suite", [False, True])
@pytest.mark.parametrize("error", [ValueError, IndexError])
def test_bench_engine_fault_exits_3(tmp_path, capsys, monkeypatch, error, suite):
    def broken(*args, **kwargs):
        raise error("engine bug")

    monkeypatch.setattr("sccd.bench.run", broken)
    argv = ["bench", "--seed", "1", "--out", str(tmp_path / "x.csv")]
    if suite:
        argv.append("--diameter-suite")
    else:
        argv += ["--family", "er", "--sizes", "20", "--replicates", "1"]
    assert main(argv) == 3
    assert "internal correctness violation" in capsys.readouterr().err


def test_bench_size_the_generator_refuses_exits_2(tmp_path, capsys):
    # Barabasi-Albert set 2 attaches m=50 links per new node, so n=40 is
    # refused with the generator's own message, before any graph is made.
    assert main(["bench", "--family", "ba", "--param-set", "2", "--sizes", "500", "40",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == "error: need 1 <= m < n, got m=50, n=40\n"
    assert not (tmp_path / "x.csv").exists()


def test_bench_size_the_engine_refuses_exits_2_before_the_oracles(tmp_path, capsys, monkeypatch):
    # A WS set 2 graph of 200 nodes is one weakly connected component, whose
    # 200 * 200 mask bits pass the lowered limit.  The BFS oracle would walk
    # it first if graph_stats ran before the engine.
    def no_oracle(*args, **kwargs):
        raise AssertionError("the BFS oracle ran before the engine refused the graph")

    monkeypatch.setattr("sccd.engine.MAX_MASK_BITS", 100 * 100)
    monkeypatch.setattr("sccd.stats.bfs_finite_diameter", no_oracle)
    assert main(["bench", "--family", "ws", "--param-set", "2", "--sizes", "200",
                 "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 2
    assert "more than the limit of 10000" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("family", ["er", "ba", "ws"])
@pytest.mark.parametrize("command", ["gen", "bench"])
def test_generated_node_count_above_cap_exits_2(tmp_path, capsys, command, family):
    # Refused before anything is allocated for the MAX_NODES + 1 nodes.
    n = str(MAX_NODES + 1)
    out = str(tmp_path / "x.csv")
    if command == "gen":
        argv = ["gen", family, "--n", n, "--m", "0" if family == "er" else "3", "--seed", "1"]
    else:
        argv = ["bench", "--family", family, "--sizes", n, "--seed", "1", "--out", out]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert f"limit of {MAX_NODES} nodes" in capsys.readouterr().err
    assert peak < 4 * 2**20
    assert not (tmp_path / "x.csv").exists()


def test_edge_list_is_read_as_utf8_whatever_the_locale(tmp_path):
    # Under the C locale, with its coercion and UTF-8 mode off, the locale's
    # encoding is ASCII, which cannot read the comment.
    path = tmp_path / "g.txt"
    path.write_text("# caf\u00e9\n0 1\n1 0\n", encoding="utf-8")
    env = {
        **os.environ,
        "LC_ALL": "C",
        "PYTHONCOERCECLOCALE": "0",
        "PYTHONUTF8": "0",
        "PYTHONPATH": str(Path(sccd.__file__).parents[1]),
    }
    code = "import sys; from sccd.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run(
        [sys.executable, "-c", code, "scc", str(path)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "component: 0 1\nrounds: 2 2\ndiameter: 1\n"


@pytest.mark.parametrize("command", ["scc", "diameter", "trace"])
def test_line_ends_are_read_as_universal_newlines(tmp_path, capsys, monkeypatch, command):
    # The CLI reads with universal newlines on purpose: CRLF and a bare \r
    # each end a line, and every form is decoded in bulk, not by the line loop.
    text = PAIR_CHAIN_TEXT + "\n"

    def no_line_loop(*args):
        raise AssertionError("the line loop read a chunk")

    monkeypatch.setattr(graphs._Reader, "read_lines", no_line_loop)
    outputs = []
    for end in ("\n", "\r\n", "\r"):
        p = tmp_path / "g.txt"
        p.write_bytes(text.replace("\n", end).encode())
        assert main([command, str(p), "--base", "1"]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0].err == ""
    assert outputs == [outputs[0]] * 3


def test_long_file_reports_a_bad_line_as_the_whole_text_loop_does(tmp_path, capsys):
    # The file is read a chunk at a time, and the line loop carries its line
    # number from chunk to chunk.
    text = serialize_edge_list(gen_barabasi_albert(300, 30, 1))
    assert len(text) > 3 * graphs._CHUNK
    cut = text.index("\n", 2 * graphs._CHUNK) + 1
    bad = text[:cut] + "3 x\n" + text[cut:]
    with pytest.raises(EdgeListError) as expected:
        parse_lines(bad, 0)
    p = tmp_path / "bad.txt"
    p.write_text(bad)
    assert main(["scc", str(p)]) == 2
    assert capsys.readouterr() == ("", f"error: {expected.value}\n")


def test_invalid_utf8_past_the_first_chunk_exits_2(tmp_path, capsys):
    data = serialize_edge_list(gen_barabasi_albert(300, 30, 1)).encode()
    cut = data.index(b"\n", 2 * graphs._CHUNK) + 1
    p = tmp_path / "bad.txt"
    p.write_bytes(data[:cut] + b"\xff\n" + data[cut:])
    assert main(["scc", str(p)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: 'utf-8' codec can't decode byte 0xff") and err.count("\n") == 1
    # The text is checked as it is read, so a bad line before the bad byte
    # is the error reported.
    p.write_bytes(b"0 1\n2\n" + data[:cut] + b"\xff\n")
    assert main(["scc", str(p)]) == 2
    assert capsys.readouterr() == ("", "error: line 2: expected 'u v', got '2'\n")


def test_out_of_memory_exits_2(tmp_path):
    # 4,000,000 nodes fit under MAX_NODES but not in 200 MiB of address
    # space, which the graph's lists pass within about a second.
    path = tmp_path / "wide.txt"
    path.write_text("# nodes: 4000000\n0 1\n")
    env = {**os.environ, "PYTHONPATH": str(Path(sccd.__file__).parents[1])}
    code = "import sys; from sccd.cli import main; sys.exit(main(sys.argv[1:]))"

    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    proc = subprocess.run(
        [sys.executable, "-c", code, "scc", str(path)],
        env=env, capture_output=True, text=True, timeout=60, preexec_fn=limit_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
