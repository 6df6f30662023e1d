"""Command-line interface tests, driven in-process through main(argv)."""

import gc
import hashlib
import itertools
import json

import pytest

import exactmatch.campaign as campaign
import exactmatch.cli as cli
from exactmatch.algebraic import ParityDecision, find_bipartition
from exactmatch.campaign import CampaignReport, Disagreement
from exactmatch.cli import main
from exactmatch.formats import (
    format_em_instance,
    parse_em_instance,
    parse_matching,
    parse_tkpm_instance,
)
from exactmatch.generator import GenSpec, gen_instance
from exactmatch.graphs import is_perfect_matching, red_count, top_k_weight, validate_instance

K2_RED_K1 = "p em 2 1 1\ne 0 1 r\n"
K2_RED_K0 = "p em 2 1 0\ne 0 1 r\n"
THREE_RED_K2S_K1 = ("p em 6 3 1\n"
                    "e 0 1 r\ne 2 3 r\ne 4 5 r\n")
K4_RED0_K1 = ("p em 4 6 1\n"
              "e 0 1 r\ne 0 2 b\ne 0 3 b\ne 1 2 b\ne 1 3 b\ne 2 3 b\n")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_gen_stdout(capsys):
    assert main(["gen", "--n", "4", "--extra", "2", "--seed", "3"]) == 0
    inst = parse_em_instance(capsys.readouterr().out)
    assert inst.graph.n == 4 and len(inst.graph.edges) == 4


def test_gen_to_file_deterministic(tmp_path, capsys):
    out1 = str(tmp_path / "a.em")
    out2 = str(tmp_path / "b.em")
    assert main(["gen", "--n", "6", "--extra", "4", "--seed", "9", "--out", out1]) == 0
    assert main(["gen", "--n", "6", "--extra", "4", "--seed", "9", "--out", out2]) == 0
    assert (tmp_path / "a.em").read_text() == (tmp_path / "b.em").read_text()
    assert capsys.readouterr().out == ""


def test_gen_bipartite(capsys):
    assert main(["gen", "--n", "8", "--extra", "5", "--bipartite", "--seed", "2"]) == 0
    inst = parse_em_instance(capsys.readouterr().out)
    assert find_bipartition(inst.graph) is not None


def test_gen_rejects_odd_n(capsys):
    assert main(["gen", "--n", "5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_reduce_roundtrip(tmp_path, capsys):
    src = write(tmp_path, "in.em", K2_RED_K1)
    out = str(tmp_path / "gadget.tkpm")
    mp = str(tmp_path / "gadget.map")
    assert main(["reduce", "--in", src, "--out", out, "--map", mp]) == 0
    stdout = capsys.readouterr().out
    assert "k'=2" in stdout and "threshold=5" in stdout
    gadget = parse_tkpm_instance((tmp_path / "gadget.tkpm").read_text())
    assert gadget.graph.n == 8 and len(gadget.graph.edges) == 6
    assert (tmp_path / "gadget.map").read_text().startswith("p map 1 1 2 5")


def test_reduce_output_bytes_are_pinned(tmp_path, capsys):
    inst = gen_instance(GenSpec(n=2000, extra_edges=40, seed=1))
    src = write(tmp_path, "big.em", format_em_instance(inst))
    out, mp = tmp_path / "big.tkpm", tmp_path / "big.map"
    assert main(["reduce", "--in", src, "--out", str(out), "--map", str(mp)]) == 0
    sha = lambda path: hashlib.sha256(path.read_bytes()).hexdigest()
    assert sha(out) == "3550b3406fe195f104bd4d597af9256c1f71d3d9805d4da508d9444980b53804"
    assert sha(mp) == "de4568566daa287717ab26e5dc3a6d12a681c76c487e6e516c1deac51bd6a2c3"


def test_reduce_missing_input(tmp_path, capsys):
    assert main(["reduce", "--in", str(tmp_path / "nope.em"),
                 "--out", str(tmp_path / "o"), "--map", str(tmp_path / "m")]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_em_brute_yes(tmp_path, capsys):
    src = write(tmp_path, "in.em", K2_RED_K1)
    assert main(["solve", "em", "--in", src]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["yes", "m 1 0"]


def test_solve_em_brute_no(tmp_path, capsys):
    src = write(tmp_path, "in.em", K2_RED_K0)
    assert main(["solve", "em", "--in", src]) == 1
    assert capsys.readouterr().out.splitlines() == ["no"]


def test_solve_em_via_tkpm(tmp_path, capsys):
    yes = write(tmp_path, "yes.em", K2_RED_K1)
    no = write(tmp_path, "no.em", K2_RED_K0)
    assert main(["solve", "em", "--engine", "via-tkpm", "--in", yes]) == 0
    assert main(["solve", "em", "--engine", "via-tkpm", "--in", no]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == ["yes", "no"]


def test_solve_em_algebraic(tmp_path, capsys):
    yes = write(tmp_path, "yes.em", K2_RED_K1)
    assert main(["solve", "em", "--engine", "algebraic", "--in", yes,
                 "--trials", "5", "--seed", "0"]) == 0
    no = write(tmp_path, "no.em", K2_RED_K0)
    assert main(["solve", "em", "--engine", "algebraic", "--in", no,
                 "--trials", "5", "--seed", "0"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "yes"
    assert out[1] == "no"
    assert out[2].startswith("error-bound 0.031")


def test_solve_em_algebraic_rejects_non_bipartite(tmp_path, capsys):
    src = write(tmp_path, "k4.em", K4_RED0_K1)
    assert main(["solve", "em", "--engine", "algebraic", "--in", src]) == 2
    assert "not bipartite" in capsys.readouterr().err


def test_solve_tkpm(tmp_path, capsys):
    src = write(tmp_path, "w.tkpm", "p tkpm 4 4 1\ne 0 1 3\ne 1 2 0\ne 2 3 2\ne 0 3 0\n")
    assert main(["solve", "tkpm", "--in", src]) == 0
    assert capsys.readouterr().out.splitlines() == ["value 3", "m 2 0 2"]
    nopm = write(tmp_path, "n.tkpm", "p tkpm 4 1 1\ne 0 1 5\n")
    assert main(["solve", "tkpm", "--in", nopm]) == 1


def test_solve_parity_problems(tmp_path, capsys):
    src = write(tmp_path, "three.em", THREE_RED_K2S_K1)
    assert main(["solve", "cpm", "--in", src]) == 0
    assert main(["solve", "cpm", "--engine", "via-em", "--in", src]) == 0
    assert main(["solve", "bcpm", "--in", src]) == 1
    assert main(["solve", "bcpm", "--engine", "via-em", "--in", src]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "yes" and out[1] == "m 3 0 1 2"
    assert out[2] == "yes"
    assert out[3] == "no" and out[4] == "no"


def test_solve_engine_problem_mismatch(tmp_path, capsys):
    src = write(tmp_path, "in.em", K2_RED_K1)
    assert main(["solve", "tkpm", "--engine", "algebraic", "--in", src]) == 2
    assert main(["solve", "em", "--engine", "via-em", "--in", src]) == 2
    err = capsys.readouterr().err
    assert "not available" in err


C6_ALTERNATING = "p em 6 6 {}\ne 0 1 r\ne 1 2 b\ne 2 3 r\ne 3 4 b\ne 4 5 r\ne 0 5 b\n"
STAR_K0 = "p em 4 3 0\ne 0 1 r\ne 0 2 b\ne 0 3 b\n"
# small bipartite inputs, so every engine runs on each of them
TABLE_INPUTS = {
    "em": [K2_RED_K1, K2_RED_K0, THREE_RED_K2S_K1, STAR_K0, "p em 0 0 0\n"]
          + [C6_ALTERNATING.format(k) for k in range(4)],
    "tkpm": ["p tkpm 4 4 1\ne 0 1 3\ne 1 2 0\ne 2 3 2\ne 0 3 0\n",
             "p tkpm 4 1 1\ne 0 1 5\n",
             "p tkpm 6 6 2\ne 0 1 1\ne 1 2 4\ne 2 3 1\ne 3 4 4\ne 4 5 1\ne 0 5 4\n"],
}
TABLE_INPUTS["cpm"] = TABLE_INPUTS["bcpm"] = TABLE_INPUTS["em"]


def perfect_matchings(graph):
    """Every perfect matching, by trying every n/2-subset of the edges."""
    return [m for m in itertools.combinations(range(len(graph.edges)), graph.n // 2)
            if is_perfect_matching(graph, m)]


def brute_force_answer(problem, instance, *matchings):
    """(yes, tkpm optimum or None) from a plain scan of all perfect matchings,
    or of the given ones."""
    matchings = matchings or perfect_matchings(instance.graph)
    k = instance.k
    if problem == "tkpm":
        values = [top_k_weight(instance.graph.weights, m, k) for m in matchings]
        return bool(values), max(values, default=None)
    reds = {red_count(instance.graph, m) for m in matchings}
    accept = {"em": lambda r: r == k,
              "cpm": lambda r: r % 2 == k % 2,
              "bcpm": lambda r: r <= k and r % 2 == k % 2}[problem]
    return any(accept(r) for r in reds), None


@pytest.mark.parametrize("problem,engine", list(campaign.SOLVERS))
def test_every_solver_row_agrees_with_brute_force(tmp_path, capsys, problem, engine):
    name = campaign.SOLVERS[(problem, engine)][0]
    parse = parse_tkpm_instance if problem == "tkpm" else parse_em_instance
    answers = set()
    for i, text in enumerate(TABLE_INPUTS[problem]):
        instance = parse(text)
        yes, best = brute_force_answer(problem, instance)
        answers.add(yes)
        src = write(tmp_path, f"{i}.in", text)
        code = main(["solve", problem, "--engine", engine, "--in", src, "--seed", "0"])
        out = capsys.readouterr().out.splitlines()
        assert code == (0 if yes else 1), (text, out)
        assert out[0] == (f"value {best}" if best is not None else "yes" if yes else "no")
        if yes and engine == "brute":
            # the witness: a perfect matching that answers the problem
            assert len(out) == 2, (text, out)
            witness = parse_matching(out[1])
            assert is_perfect_matching(instance.graph, witness)
            if problem == "tkpm":
                assert top_k_weight(instance.graph.weights, witness, instance.k) == best
            else:
                assert brute_force_answer(problem, instance, witness)[0], (text, out)
        elif not yes and engine == "algebraic":
            # 2^-trials after a sure no, 0 when the sides differ in size
            exact = 2 * sum(find_bipartition(instance.graph)) != instance.graph.n
            assert out[1:] == [f"error-bound {0 if exact else 2.0 ** -40:.3g}"], (text, out)
        else:
            assert len(out) == 1, (text, out)
        if name is not None:
            answer = campaign.ENGINES[name][1](instance, 0, 40, None)
            assert answer.yes is yes, (name, text, answer)
    assert answers == {True, False}


def test_solve_prints_the_error_bound_of_a_via_em_no(tmp_path, monkeypatch, capsys):
    # with a randomized EM decider, a via-em "no" carries a union bound,
    # which solve prints as it prints the algebraic row's
    monkeypatch.setattr(campaign, "cpm_via_em", lambda inst: ParityDecision(False, 0.25, (1,)))
    src = write(tmp_path, "in.em", K2_RED_K1)
    assert main(["solve", "cpm", "--engine", "via-em", "--in", src]) == 1
    assert capsys.readouterr().out == "no\nerror-bound 0.25\n"


def test_solve_parse_error_carries_line_number(tmp_path, capsys):
    src = write(tmp_path, "bad.em", "p em 2 1 0\ne 0 1 purple\n")
    assert main(["solve", "em", "--in", src]) == 2
    assert "line 2" in capsys.readouterr().err


K2_PARALLEL_K1 = "p em 2 2 1\ne 0 1 r\ne 0 1 b\n"


@pytest.mark.parametrize("engine", ["brute", "via-tkpm", "algebraic"])
def test_solve_rejects_invalid_instance(tmp_path, capsys, engine):
    # the parser accepts parallel edges; the CLI validates before solving
    src = write(tmp_path, "par.em", K2_PARALLEL_K1)
    assert main(["solve", "em", "--engine", engine, "--in", src]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: parallel edge at edge 1 (duplicate of edge 0)\n"


def test_solve_rejects_k_out_of_range(tmp_path, capsys):
    src = write(tmp_path, "bigk.em", "p em 2 1 2\ne 0 1 r\n")
    assert main(["solve", "cpm", "--in", src]) == 2
    assert "k (2) exceeds maximum matching size (1)" in capsys.readouterr().err


def test_solve_tkpm_rejects_self_loop(tmp_path, capsys):
    src = write(tmp_path, "loop.tkpm", "p tkpm 2 2 1\ne 0 1 3\ne 1 1 2\n")
    assert main(["solve", "tkpm", "--in", src]) == 2
    assert "self-loop at edge 1" in capsys.readouterr().err


def test_reduce_rejects_invalid_instance(tmp_path, capsys):
    src = write(tmp_path, "par.em", K2_PARALLEL_K1)
    out, gmap = tmp_path / "g.tkpm", tmp_path / "g.map"
    assert main(["reduce", "--in", src, "--out", str(out), "--map", str(gmap)]) == 2
    assert "parallel edge at edge 1" in capsys.readouterr().err
    assert not out.exists() and not gmap.exists()


def test_verify_exhaustive_n2(tmp_path, capsys):
    report_file = str(tmp_path / "report.json")
    assert main(["verify", "--exhaustive", "--max-n", "2", "--json", report_file]) == 0
    out = capsys.readouterr().out
    assert "instances 4 agreements 4 disagreements 0 statistical 0 skipped 0" in out
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["instances_run"] == 4 and doc["disagreements"] == []


def test_verify_exhaustive_requires_max_n(capsys):
    assert main(["verify", "--exhaustive"]) == 2
    assert "--max-n" in capsys.readouterr().err


@pytest.mark.parametrize("max_n", ["1", "0", "-2"])
def test_verify_exhaustive_rejects_empty_sweep(max_n, capsys):
    assert main(["verify", "--exhaustive", "--max-n", max_n]) == 2
    captured = capsys.readouterr()
    assert "max_n must be at least 2" in captured.err
    assert "instances" not in captured.out


def test_verify_random(capsys):
    assert main(["verify", "--random", "--count", "24", "--seed", "5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("instances 24 ")
    assert "disagreements 0" in out


def test_verify_random_runs_every_engine(tmp_path, capsys):
    report_file = tmp_path / "report.json"
    assert main(["verify", "--random", "--count", "24", "--seed", "5",
                 "--json", str(report_file)]) == 0
    doc = json.loads(report_file.read_text())
    assert doc["engine_seconds"].keys() == {
        "algebraic", "brute-cpm", "brute-em", "cpm-via-em", "via-tkpm"}
    assert [row["engine"] for row in doc["detection"]] == ["algebraic"]


def test_verify_prints_skip_notes_with_merged_ids(monkeypatch, capsys):
    # with brute-em and algebraic alone, a non-bipartite instance leaves
    # nothing to compare, so verify skips it and prints its note; the note's
    # id counts across the whole size mix, instance i being generated with
    # seed 3 + i at the size of its share
    monkeypatch.setattr(cli, "ENGINES", ("brute-em", "algebraic"))
    assert main(["verify", "--random", "--count", "12", "--seed", "3"]) == 0
    summary, notes = capsys.readouterr().out.split("\n", 1)
    blocks = notes.rstrip("\n").split("\n\n")
    skipped = int(summary.split()[-1])
    assert skipped == len(blocks) > 0
    share = 12 // len(cli._VERIFY_SIZES)
    ids = []
    for block in blocks:
        head, text = block.split("\n", 1)
        iid = int(head.removeprefix("instance ").split(":")[0])
        assert head == (f"instance {iid}: skipped, not bipartite, so no problem family "
                        "had two engines to compare")
        n, extra = cli._VERIFY_SIZES[iid // share]
        spec = GenSpec(n=n, extra_edges=extra, red_prob=0.5, seed=3 + iid)
        assert text + "\n" == format_em_instance(gen_instance(spec))
        ids.append(iid)
    assert ids == sorted(set(ids)) and ids[-1] >= share


def test_verify_random_requires_count(capsys):
    assert main(["verify", "--random"]) == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["0", "-1"])
def test_verify_random_rejects_count_below_one(count, capsys):
    assert main(["verify", "--random", "--count", count]) == 2
    captured = capsys.readouterr()
    assert "--count of at least 1" in captured.err
    assert "instances" not in captured.out


def test_verify_reports_disagreement_with_exit_3(monkeypatch, capsys):
    rigged = CampaignReport(
        instances_run=1, agreements=0,
        disagreements=(Disagreement(
            instance_id=0, engine_a="brute-em", engine_b="via-tkpm",
            verdict_a="yes", verdict_b="no", kind="hard",
            instance_text=K2_RED_K1),),
        statistical_events=(), engine_seconds=(), detection=(), seed=0)
    monkeypatch.setattr(cli, "exhaustive_sweep", lambda max_n, seed=0: rigged)
    assert main(["verify", "--exhaustive", "--max-n", "2"]) == 3
    out = capsys.readouterr().out
    assert "disagreements 1" in out
    assert "hard: brute-em=yes via-tkpm=no on instance 0" in out
    assert "p em 2 1 1" in out


def test_verify_reports_a_crashing_engine_with_exit_3(monkeypatch, capsys):
    def short_degree_bound(instance, trials, seed):
        raise IndexError("list index out of range")

    monkeypatch.setattr(campaign, "algebraic_em_decide", short_degree_bound)
    assert main(["verify", "--random", "--count", "24", "--seed", "5"]) == 3
    out = capsys.readouterr().out
    assert out.startswith("instances 24 ")
    assert "hard: algebraic=raised IndexError brute-em=" in out


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["solve", "nosuch", "--in", "x"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["verify", "--exhaustive", "--random"])
    assert info.value.code == 2


def test_repeated_calls_in_one_process_keep_no_state(tmp_path, monkeypatch, capsys):
    # main reuses one parser per process: no option value may carry over
    src = write(tmp_path, "in.em", K2_RED_K1)
    seeds = []

    def record(inst, seed, trials, budget):
        seeds.append(seed)
        return campaign.Answer(False)

    monkeypatch.setitem(cli.SOLVERS, ("em", "brute"), ("brute-em", record))
    assert main(["solve", "em", "--in", src, "--seed", "5"]) == 1
    assert main(["solve", "em", "--in", src]) == 1
    assert seeds == [5, None]
    with pytest.raises(SystemExit) as info:
        main(["solve", "em", "--in", src, "--engine", "nosuch"])
    assert info.value.code == 2
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["solve", "em", "--in", src]) == 0
    assert capsys.readouterr().out == "yes\nm 1 0\n"


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
def test_reduce_and_solve_pause_the_collector_and_restore_it(tmp_path, monkeypatch, capsys,
                                                             enabled):
    yes = write(tmp_path, "yes.em", K2_RED_K1)
    no = write(tmp_path, "no.em", K2_RED_K0)
    bad = write(tmp_path, "bad.em", "p em 2 1 0\ne 0 1\n")
    out, gmap = str(tmp_path / "g.tkpm"), str(tmp_path / "g.map")
    seen = []

    def spy(instance):
        seen.append(gc.isenabled())
        return validate_instance(instance)

    monkeypatch.setattr(cli, "validate_instance", spy)
    runs = [(["reduce", "--in", yes, "--out", out, "--map", gmap], 0),
            (["solve", "em", "--in", yes], 0),
            (["solve", "em", "--in", no], 1),
            (["solve", "em", "--in", bad], 2)]
    was_enabled = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        for argv, code in runs:
            assert main(argv) == code
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False, False, False]   # the bad file stops before validation
    assert "line 2: malformed edge record" in capsys.readouterr().err


def test_console_entry_matches_main():
    import exactmatch
    assert exactmatch.cli.main is main
