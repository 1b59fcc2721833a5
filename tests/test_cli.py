import json
import shlex
from pathlib import Path

import pytest

from radograph import adjacent, realize
from radograph.bignat import decode, encode
from radograph.cli import main, parse_oracle_spec
from radograph.oracle import (
    CompactFamily,
    build_c0,
    build_fp,
    identity_oracle,
    replay,
    seeded_oracle,
)
from radograph.translate import translate, truss_factor
from radograph.triple import GoodTriple


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def run_json(capsys, *argv):
    rc, out = run(capsys, *argv)
    return rc, json.loads(out)


def test_adj_frozen(capsys):
    rc, data = run_json(capsys, "adj", "0", "1")
    assert rc == 0
    assert data == {"adjacent": True}


def test_adj_false(capsys):
    rc, data = run_json(capsys, "adj", "0", "2")
    assert rc == 0 and data == {"adjacent": False}


def test_realize_frozen(capsys):
    rc, data = run_json(capsys, "realize", "--tau", "0:1,1:0,2:1")
    assert rc == 0
    assert data == {"vertex": 5}


def test_realize_forbid_and_bound(capsys):
    rc, data = run_json(capsys, "realize", "--tau", "0:1", "--forbid", "1", "--bound", "0")
    assert rc == 0 and data == {"vertex": 3}


@pytest.mark.parametrize("cmd", [
    ["realize"],
    ["split", "--family", "id", "--m", "0", "--bound", "1"],
])
def test_tau_value_other_than_0_or_1_is_domain_error(capsys, cmd):
    # realize reads tau's values as given, so the CLI admits only 0 and 1
    rc, data = run_json(capsys, *cmd, "--tau", "0:2")
    assert rc == 1 and "0 or 1" in data["error"]


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as e:
        main(["realize", "--no-such-flag"])
    assert e.value.code == 2
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_split_command(capsys):
    rc, data = run_json(
        capsys, "split", "--family", "id", "--family", "pairs:0-1,1-0",
        "--m", "0,1", "--tau", "0:0,1:0", "--bound", "1",
    )
    assert rc == 0
    assert data["vertex"] > 1


def test_oracle_specs():
    assert parse_oracle_spec("id").kind == "identity"
    o = parse_oracle_spec("pairs:0-1,1-0")
    assert o.kind == "seeded" and o.image(0) == 1
    assert parse_oracle_spec("fp:011").pattern == (0, 1, 1)
    assert parse_oracle_spec("c0:7").seed == 7
    with pytest.raises(ValueError):
        parse_oracle_spec("wat:1")


def test_bad_spec_is_domain_error(capsys):
    rc, data = run_json(capsys, "split", "--family", "wat:1", "--m", "0")
    assert rc == 1 and "error" in data


LOG_FIELDS = {"seed", "kind", "pattern", "tasks"}


def _assert_replay_log(data, o, depth):
    # the "log" holds the task log and no core; replaying it rebuilds the
    # oracle that the command built
    o.develop(depth)
    assert set(data["log"]) == LOG_FIELDS
    assert replay(data["log"]).core() == o.core()
    assert len(o.core()) == data["core_size"]


def test_build_fp(capsys):
    rc, data = run_json(capsys, "build-fp", "--pattern", "010", "--depth", "3")
    assert rc == 0
    assert data["kind"] == "fp"
    assert data["orbits"] >= 3
    assert data["log"]["pattern"] == [0, 1, 0]
    _assert_replay_log(data, build_fp("010"), 3)


def test_build_c0(capsys):
    rc, data = run_json(capsys, "build-c0", "--depth", "2")
    assert rc == 0
    assert data["kind"] == "c0" and data["core_size"] > 0
    _assert_replay_log(data, build_c0(seed=0), 2)


def _snapshot_file(tmp_path, corrupt=False):
    target = build_c0(seed=0)
    target.develop(1)
    fam = CompactFamily([identity_oracle(), seeded_oracle({2: 3})])
    t = GoodTriple(fam, target)
    t.add_to_m({0} | {h.image(0) for h in fam})
    t.extend_phi_all(0)
    t.extend_domain_g(0)
    for value in sorted({h.image(0) for h in fam}):
        t.extend_phi_all(value)
    t.extend_range_g(0)
    if corrupt:
        c = t.classes()[0]
        hv = c.hmap[t.g[0]]
        c.phi[hv] = target.image(target.image(c.phi[0]))
    path = tmp_path / ("bad.json" if corrupt else "good.json")
    path.write_text(json.dumps(t.to_snapshot()))
    return str(path)


def test_good_check_ok(capsys, tmp_path):
    path = _snapshot_file(tmp_path)
    snap = json.loads(Path(path).read_text())
    for ref in [*snap["family_ref"], snap["target_ref"]]:
        assert set(ref) == LOG_FIELDS  # good-check replays each ref
    rc, data = run_json(capsys, "good-check", "--snapshot", path)
    assert rc == 0 and data["ok"] is True


def test_good_check_planted_violation(capsys, tmp_path):
    path = _snapshot_file(tmp_path, corrupt=True)
    rc, data = run_json(capsys, "good-check", "--snapshot", path)
    assert rc == 1
    assert data["error"]["condition"] == "(iv)"


def _translated_snapshot(steps):
    res = translate(CompactFamily([identity_oracle(), seeded_oracle({2: 3})]),
                    build_c0(seed=0), steps)
    return json.loads(json.dumps(res.triple.to_snapshot()))


def test_good_check_reports_a_big_witness_as_json(capsys, tmp_path):
    # dropping the largest phi key, a Big, of the first class leaves a point
    # of h o g without phi: condition (ii) names it, encoded, and the CLI
    # prints its JSON error instead of failing to write a Big
    snap = _translated_snapshot(8)
    pairs = snap["phi"][0]["map"]
    assert isinstance(pairs[-1][0], dict)  # encode_map lists keys ascending
    del pairs[-1]
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snap))
    rc, data = run_json(capsys, "good-check", "--snapshot", str(path))
    assert rc == 1
    assert data["error"]["condition"] == "(ii)"


def test_good_check_reports_a_phi_value_the_target_never_touched(capsys, tmp_path):
    # phi(3) of the first class moves to a fresh vertex with the same
    # adjacency to the other values; 3 lies on no pair of h o g, so (iv)
    # reads no image of it, and (v) finds a value the target never touched
    snap = _translated_snapshot(6)
    pairs = snap["phi"][0]["map"]
    values = [decode(w) for _, w in pairs]
    j = [decode(u) for u, _ in pairs].index(3)
    tau = {w: adjacent(values[j], w) for k, w in enumerate(values) if k != j}
    pairs[j][1] = encode(realize(tau, forbidden=[values[j]]))
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snap))
    rc, data = run_json(capsys, "good-check", "--snapshot", str(path))
    assert rc == 1
    assert data["error"] == {"ok": False, "condition": "(v)", "witness": 3}


def test_good_check_reads_the_star_tasks_of_an_older_snapshot(capsys, tmp_path):
    # a "star" task was ["star", pairs, "(*)0"] before the witness variants
    # went; replay reads only the pairs, so such a snapshot checks as before
    snap = _translated_snapshot(6)
    stars = 0
    for ref in [*snap["family_ref"], snap["target_ref"]]:
        for task in ref["tasks"]:
            if task[0] == "star":
                task.append("(*)0")
                stars += 1
    assert stars > 0
    path = tmp_path / "snap.json"
    path.write_text(json.dumps(snap))
    rc, data = run_json(capsys, "good-check", "--snapshot", str(path))
    assert rc == 0 and data["ok"] is True


@pytest.mark.parametrize("key, value", [
    ("g", 5),
    ("phi", 5),
    ("family_ref", [5]),  # replay raises TypeError
    ("target_ref", {"kind": "c0", "seed": 0, "tasks": [[]]}),  # IndexError
])
def test_good_check_malformed_snapshot(capsys, tmp_path, key, value):
    path = Path(_snapshot_file(tmp_path))
    snap = json.loads(path.read_text())
    snap[key] = value
    path.write_text(json.dumps(snap))
    rc, data = run_json(capsys, "good-check", "--snapshot", str(path))
    assert rc == 1
    assert data["error"].startswith("malformed snapshot: ")


def test_translate_command_with_trace(capsys, tmp_path):
    trace_file = tmp_path / "trace.json"
    rc, data = run_json(
        capsys, "--trace", str(trace_file),
        "translate", "--family", "id", "--family", "pairs:2-3", "--steps", "4",
    )
    assert rc == 0
    assert data["steps"] == 4
    trace = json.loads(trace_file.read_text())
    assert all(e["check"]["ok"] for e in trace)
    assert data["checks_passed"] == len(trace)


@pytest.mark.parametrize("argv", [
    ["translate", "--family", "id", "--family", "pairs:2-3", "--family", "pairs:0-2",
     "--steps", "8"],
    ["truss", "--h", "pairs:2-3", "--steps", "8"],
])
def test_trace_file_is_the_library_trace(capsys, tmp_path, argv):
    # the CLI encodes the trace only for --trace FILE, and what it writes is
    # to_json()'s trace of the same run, byte for byte
    trace_file = tmp_path / "trace.json"
    rc, with_file = run_json(capsys, "--trace", str(trace_file), *argv)
    assert rc == 0
    rc, without = run_json(capsys, *argv)
    assert rc == 0
    assert with_file == without
    if argv[0] == "translate":
        fam = CompactFamily([parse_oracle_spec(s) for s in argv[2:-2:2]])
        res = translate(fam, build_c0(seed=0), 8)
        assert without["trace"] == f"{len(res.trace)} entries (use --trace FILE)"
    else:
        res, _ = truss_factor(parse_oracle_spec("pairs:2-3"), 8)
    assert trace_file.read_text() == json.dumps(res.to_json()["trace"])
    assert any(isinstance(e["arg"], dict) for e in res.to_json()["trace"])  # a Big


def test_conjugate_c0_command(capsys):
    rc, data = run_json(
        capsys, "conjugate-c0", "--seed-a", "0", "--seed-b", "1", "--depth", "6"
    )
    assert rc == 0
    assert data["verify"]["ok"] is True
    assert len(data["phi"]) >= 6


def test_truss_command(capsys):
    rc, data = run_json(capsys, "truss", "--h", "pairs:0-2", "--steps", "6")
    assert rc == 0
    assert len(data["certificates"]) == 2
    assert all(v["ok"] for v in data["verify"])


def test_verify_roundtrip_and_mutation(capsys, tmp_path):
    _, certs = truss_factor(seeded_oracle({0: 2}), 6)
    cert = certs[-1]
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert))
    rc, data = run_json(capsys, "verify", "--certificate", str(good))
    assert rc == 0 and data["ok"] is True

    # single-value mutation of the checked points payload
    blob = json.loads(good.read_text())
    blob["checked_points"][0] = 987654321
    bad = tmp_path / "mutated.json"
    bad.write_text(json.dumps(blob))
    rc, data = run_json(capsys, "verify", "--certificate", str(bad))
    assert rc == 1 and "error" in data


def test_sample_command(capsys):
    rc, data = run_json(
        capsys, "--seed", "11", "sample", "--depth", "8", "--trials", "3"
    )
    assert rc == 0
    assert len(data["core"]) == 8
    assert data["report"]["exploratory"] is True


@pytest.mark.parametrize("cmd", [
    ("sample", "--depth", "-3"),
    ("sample", "--depth", "2", "--trials", "-2"),
    ("build-c0", "--depth", "-2"),
    ("translate", "--family", "id", "--family", "pairs:0-1", "--steps", "-3"),
    ("truss", "--h", "pairs:3-90", "--steps", "-2"),
    ("conjugate-c0", "--seed-a", "0", "--seed-b", "1", "--depth", "-2"),
])
def test_negative_count_is_domain_error(capsys, cmd):
    rc, data = run_json(capsys, *cmd)
    assert rc == 1 and "non-negative" in data["error"]


def test_export_dot(capsys):
    rc, data = run_json(capsys, "export-dot", "--m", "0,1,3")
    assert rc == 0
    assert '"0" -- "1"' in data["dot"]


def test_pretty_output_is_not_json(capsys):
    rc, out = run(capsys, "--pretty", "adj", "0", "1")
    assert rc == 0
    assert "adjacent: True" in out


def test_adj_negative_vertex_is_domain_error(capsys):
    rc, data = run_json(capsys, "adj", "--", "-1", "2")
    assert rc == 1 and data == {"error": "vertices are naturals"}


N = (1 << 5000) + (1 << 7)  # parsed to a Big where the CLI reads it


def test_adj_oversized_vertex(capsys):
    rc, data = run_json(capsys, "adj", "7", str(N))
    assert rc == 0 and data == {"adjacent": True}


def test_realize_oversized_bound(capsys):
    rc, data = run_json(capsys, "realize", "--tau", "7:1", "--bound", str(N))
    assert rc == 0 and data == {"vertex": {"^": [5000, 7, 0]}}


def test_replay_rejects_negative_seed():
    log = build_c0(seed=0).to_json()
    log["seed"] = -1
    with pytest.raises(ValueError, match="naturals"):
        replay(log)


def _readme_cli_lines():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0] for line in block.splitlines()
            if line.startswith("radograph ")]


def test_readme_cli_examples_run(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    fam = CompactFamily([identity_oracle(), seeded_oracle({2: 3})])
    snap = translate(fam, build_c0(seed=0), 4).triple.to_snapshot()
    (tmp_path / "snap.json").write_text(json.dumps(snap))
    _, certs = truss_factor(seeded_oracle({0: 2}), 6)
    (tmp_path / "cert.json").write_text(json.dumps(certs[-1]))
    lines = _readme_cli_lines()
    assert len(lines) >= 12
    for line in lines:
        rc, out = run(capsys, *shlex.split(line)[1:])
        assert rc == 0, (line, out)
