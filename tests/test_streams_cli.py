import io
import random
from pathlib import Path

import pytest

from dynseq.cli import main
from dynseq.streams import (QUERY, StreamError, generate_stream, parse_stream,
                            serialize_stream)


def run_cli(*argv):
    buf = io.StringIO()
    rc = main(list(argv), out=buf)
    return rc, buf.getvalue()


def test_stream_round_trip():
    text = "# comment\nI 1 5\nQ\n\nI 2 7\nD 1\nQ\n"
    items = parse_stream(text)
    assert serialize_stream(items) == "I 1 5\nQ\nI 2 7\nD 1\nQ\n"
    assert parse_stream(serialize_stream(items)) == items


def test_parse_rejects_garbage():
    with pytest.raises(StreamError):
        parse_stream("I 1\n")
    with pytest.raises(StreamError):
        parse_stream("X 3 4\n")
    with pytest.raises(StreamError):
        parse_stream("I one 2\n")


def test_generated_streams_are_valid_and_deterministic():
    for kind in ("uniform", "sorted", "reverse", "sawtooth"):
        a = generate_stream(kind, 300, 7)
        b = generate_stream(kind, 300, 7)
        assert a == b
        n = 0
        values = set()
        for item in a:
            assert item != QUERY
            if item.kind == "I":
                assert 1 <= item.position <= n + 1
                assert item.value not in values
                values.add(item.value)
                n += 1
            else:
                assert 1 <= item.position <= n
                n -= 1


def test_oracle_command(tmp_path):
    path = tmp_path / "arr.txt"
    path.write_text("7 2 4 1 9 6 3 5 8\n")
    rc, out = run_cli("oracle", "--array", str(path))
    assert rc == 0
    assert out.strip() == "LIS 4 DTM 5"


def test_oracle_scale_guard(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(" ".join(str(i) for i in range(10_001)))
    rc, _ = run_cli("oracle", "--array", str(path))
    assert rc == 5


def test_single_insert_estimate(tmp_path):
    path = tmp_path / "s.txt"
    path.write_text("I 1 5\nQ\n")
    rc, out = run_cli("lis-dyn", "--engine", "naive", "--stream", str(path))
    assert rc == 0
    assert out.strip() == "step=1 estimate=1"


def test_lis_dyn_audit_all_engines(tmp_path):
    items = generate_stream("uniform", 250, 3, query_every=10)
    path = tmp_path / "s.txt"
    path.write_text(serialize_stream(items))
    for engine in ("naive", "sqrt", "hier"):
        rc, out = run_cli("lis-dyn", "--engine", engine, "--epsilon", "0.5",
                          "--stream", str(path), "--audit")
        assert rc == 0, (engine, out)


def test_malformed_stream_is_input_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("I 1 5\nD 4\n")  # delete out of range
    rc, _ = run_cli("lis-dyn", "--engine", "naive", "--stream", str(path))
    assert rc == 3
    path.write_text("zork\n")
    rc, _ = run_cli("lis-dyn", "--engine", "naive", "--stream", str(path))
    assert rc == 3


def test_missing_file_is_input_error():
    rc, _ = run_cli("lis-dyn", "--engine", "naive", "--stream", "/nonexistent")
    assert rc == 3


def test_lis_plus_command(tmp_path):
    items = generate_stream("uniform", 200, 5, insert_only=True, query_every=8)
    path = tmp_path / "s.txt"
    path.write_text(serialize_stream(items))
    rc, out = run_cli("lis-plus", "--stream", str(path), "--audit")
    assert rc == 0
    # delete lines are rejected as input
    path.write_text("I 1 5\nD 1\n")
    rc, _ = run_cli("lis-plus", "--stream", str(path))
    assert rc == 3


def test_dtm_commands(tmp_path):
    items = generate_stream("uniform", 300, 9, query_every=10)
    path = tmp_path / "s.txt"
    path.write_text(serialize_stream(items))
    rc, _ = run_cli("dtm-dyn", "--epsilon", "0.25", "--stream", str(path), "--audit")
    assert rc == 0
    arr = tmp_path / "a.txt"
    arr.write_text("3 1 2")
    rc, out = run_cli("dtm-seq", "--array", str(arr))
    assert rc == 0 and out.strip() == "DTM 1"


def test_partition_command(tmp_path):
    rng = random.Random(1)
    vals = rng.sample(range(10**6), 64)
    inp = tmp_path / "in.txt"
    outp = tmp_path / "out.txt"
    inp.write_text(" ".join(map(str, vals)))
    for engine in ("baseline", "dynamic"):
        rc, _ = run_cli("partition", "--engine", engine, "--epsilon", "0.8",
                        "--input", str(inp), "--output", str(outp))
        assert rc == 0
        lines = outp.read_text().splitlines()
        seen = set()
        for line in lines:
            parts = line.split()
            assert parts[0] in "+-"
            idxs = [int(t) for t in parts[1:]]
            assert all(1 <= i <= 64 for i in idxs)
            seen.update(idxs)
        assert seen == set(range(1, 65))
    # zero parts: an empty file, not one blank line
    inp.write_text("")
    for engine in ("baseline", "dynamic"):
        rc, _ = run_cli("partition", "--engine", engine, "--input", str(inp),
                        "--output", str(outp))
        assert rc == 0 and outp.read_text() == ""


def test_packing_and_gridpack_commands():
    rc, out = run_cli("packing", "--m", "16", "--kappa", "0.5")
    assert rc == 0 and "d=2" in out
    rc, out = run_cli("packing", "--m", "16", "--kappa", "0.5", "--dump")
    assert rc == 0 and "segment 1 1" in out
    rc, out = run_cli("gridpack", "--m", "8", "--kappa", "0.5", "--trials", "100")
    assert rc == 0 and "beta_worst=" in out


def test_mutation_no_family2_breaks_gridpack():
    rc, _ = run_cli("gridpack", "--m", "32", "--kappa", "0.3", "--trials", "200",
                    "--fault", "no-family2")
    assert rc == 4


def test_mutation_skip_segment_breaks_hier_audit(tmp_path):
    # a decreasing filler (LIS 1) plus a short increasing run on top, then
    # tear the run down: deletes that were never routed to one covering
    # segment leave a stale high per-segment estimate behind while the true
    # LIS crashes, so the soundness audit must trip
    lines = []
    for i in range(500):
        lines.append(f"I {i + 1} {-i * 3}")
    for i in range(100):
        lines.append(f"I {500 + i + 1} {1000 + i * 5}")
    n = 600
    for _ in range(100):
        lines.append(f"D {n}")
        n -= 1
        lines.append("Q")
    path = tmp_path / "s.txt"
    path.write_text("\n".join(lines) + "\n")
    rc, _ = run_cli("lis-dyn", "--engine", "hier", "--stream", str(path),
                    "--audit", "--fault", "skip-segment")
    assert rc == 4
    rc, _ = run_cli("lis-dyn", "--engine", "hier", "--stream", str(path),
                    "--audit")
    assert rc == 0


def test_bench_reproducible():
    rc1, out1 = run_cli("bench", "--engines", "naive,sqrt", "--sizes", "128",
                        "--kinds", "uniform,sorted", "--seed", "7")
    rc2, out2 = run_cli("bench", "--engines", "naive,sqrt", "--sizes", "128",
                        "--kinds", "uniform,sorted", "--seed", "7")
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.count("bench engine=") == 4


@pytest.mark.parametrize("sizes,seed", [("200", "7"), ("300,2000", "3")])
def test_bench_matches_committed_output(sizes, seed):
    # regenerate with
    #   PYTHONPATH=src python -c "from dynseq.cli import main; main()" bench \
    #     --engines naive,sqrt,hier,dtm,lisplus --sizes 200 --seed 7 \
    #     > tests/data/bench_sizes200_seed7.txt
    # (and likewise --sizes 300,2000 --seed 3 into
    # bench_sizes300_2000_seed3.txt, where the grid levels engage)
    # only where a change means to move it: a work column may only fall,
    # and CHANGES.md records which lines moved and why
    name = f"bench_sizes{sizes.replace(',', '_')}_seed{seed}.txt"
    golden = Path(__file__).parent / "data" / name
    rc, out = run_cli("bench", "--engines", "naive,sqrt,hier,dtm,lisplus",
                      "--sizes", sizes, "--seed", seed)
    assert rc == 0
    assert out == golden.read_text()


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["lis-dyn"])  # missing required flags
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["lis-dyn", "--engine", "sqrt", "--stream", "{stream}", "--epsilon", "1.5"],
    ["dtm-dyn", "--stream", "{stream}", "--epsilon", "-1"],
    ["partition", "--engine", "dynamic", "--input", "{array}", "--epsilon", "2"],
    ["packing", "--kappa", "0.5", "--m", "0"],
    ["gridpack", "--m", "8", "--kappa", "2"],
    ["gridpack", "--m", "8", "--kappa", "0.5", "--trials", "0"],
    ["bench", "--engines", "naive", "--sizes", "x"],
    ["bench", "--engines", "naive", "--sizes", "-5"],
])
def test_bad_parameter_is_usage_error(tmp_path, capsys, argv):
    # the last option holds the bad value; the rest are valid
    stream = tmp_path / "s.txt"
    stream.write_text("I 1 5\nQ\n")
    array = tmp_path / "a.txt"
    array.write_text("3 1 2")
    argv = [a.format(stream=stream, array=array) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: " in capsys.readouterr().err
