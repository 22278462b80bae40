"""End-to-end command line tests: exit codes, report files, determinism."""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from safelogrank import cli
from safelogrank.cli import (
    EXIT_CONTINUE,
    EXIT_DATA,
    EXIT_REJECT,
    EXIT_USAGE,
    main,
)
from safelogrank.data import dataset_from_stream, write_dataset
from safelogrank.simulate import sample_single_event_stream, stream_rng


@pytest.fixture
def strong_dataset(tmp_path):
    """A long balanced stream from a strong effect: the exact test at
    theta1=0.5 certainly crosses 1/alpha somewhere."""
    stream = sample_single_event_stream(150, 150, 0.35, stream_rng(1001, 0))
    path = tmp_path / "strong.csv"
    write_dataset(dataset_from_stream(stream), str(path))
    return str(path)


@pytest.fixture
def null_dataset(tmp_path):
    stream = sample_single_event_stream(25, 25, 1.0, stream_rng(77, 0))
    path = tmp_path / "null.csv"
    write_dataset(dataset_from_stream(stream), str(path))
    return str(path)


def test_analyze_reject_exit_code(strong_dataset, capsys):
    code = main(["analyze", strong_dataset, "--test", "exact", "--theta1", "0.5"])
    assert code == EXIT_REJECT
    out = capsys.readouterr().out
    assert "decision: reject" in out


def test_analyze_continue_exit_code(null_dataset, capsys):
    code = main(["analyze", null_dataset, "--theta1", "0.5", "--alpha", "0.01"])
    assert code in (EXIT_CONTINUE, EXIT_REJECT)
    # a 25+25 null stream at alpha=0.01 essentially never rejects with this seed
    assert code == EXIT_CONTINUE
    assert "decision: continue" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text",
    [
        "time,group,status\n1,1,event\n2,0,event\n3,0,event\n",
        # the entry column comes first, so the mark once hid it
        "entry,time,group,status\n0,1,1,event\n0,2,0,event\n1.5,3,1,event\n0,4,0,event\n",
    ],
)
def test_a_byte_order_mark_is_skipped(text, tmp_path, capsys):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(text, encoding="utf-8")
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main(["analyze", str(plain), "--theta1", "0.7", "--out", str(tmp_path / "p")]) == EXIT_CONTINUE
    assert main(["analyze", str(marked), "--theta1", "0.7", "--out", str(tmp_path / "m")]) == EXIT_CONTINUE
    assert (tmp_path / "m.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()


def test_analyze_zero_events_is_continue(tmp_path, capsys):
    path = tmp_path / "censored.csv"
    path.write_text("time,group,status\n1,0,censored\n2,1,censored\n")
    code = main(["analyze", str(path), "--theta1", "0.7"])
    assert code == EXIT_CONTINUE
    out = capsys.readouterr().out
    assert "final_log10_e: 0" in out


def test_analyze_missing_file_is_data_error(capsys):
    assert main(["analyze", "/nonexistent.csv", "--theta1", "0.7"]) == EXIT_DATA


def test_analyze_malformed_file_is_data_error(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("time,group,status\n1,7,event\n")
    assert main(["analyze", str(path), "--theta1", "0.7"]) == EXIT_DATA
    assert "line 2" in capsys.readouterr().err


def test_analyze_file_that_is_not_utf8_is_data_error(tmp_path, capsys):
    path = tmp_path / "latin1.csv"
    path.write_bytes("time,group,status\n1,0,censor\xe9\n".encode("latin-1"))
    assert main(["analyze", str(path), "--theta1", "0.7"]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"safelogrank: data error: {path} is not UTF-8 text: ")
    assert "0xe9" in err


def test_analyze_refuses_an_infinite_exit_time(tmp_path, capsys):
    path = tmp_path / "inf.csv"
    path.write_text("time,group,status\n1,0,event\ninf,0,event\n2,1,censored\n")
    assert main(["analyze", str(path), "--theta1", "0.7"]) == EXIT_DATA
    assert "line 3: exit time must be finite, got entry=0.0 exit=inf" in capsys.readouterr().err


def test_usage_errors(null_dataset, tmp_path, capsys):
    assert main(["analyze", null_dataset]) == EXIT_USAGE  # theta1 missing
    assert main(["analyze", null_dataset, "--test", "zebra"]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["analyze", null_dataset, "--theta1", "0.7", "--two-sided",
                 "--test", "plugin"]) == EXIT_USAGE
    # the Gaussian e-value is built for theta0 = 1 only
    assert main(["analyze", null_dataset, "--test", "gaussian", "--theta1", "0.7",
                 "--theta0", "0.7"]) == EXIT_USAGE
    # a grid of fewer than two points, or with an infinite end, has nothing to invert over
    for grid in ("0.5:2:0", "0.5:2:1", "0.5:2:-3", "0.5:inf:5", "2:0.5:5"):
        assert main(["confseq", null_dataset, "--grid", grid]) == EXIT_USAGE
        assert "grid needs" in capsys.readouterr().err
    # a grid reaching past the admissible hazard ratios is refused, and no report written
    for grid in ("1e-20:1e20:3", "1e-9:1:5", "1:1e9:5"):
        assert main(["confseq", null_dataset, "--grid", grid, "--out", str(tmp_path / "g")]) == EXIT_USAGE
        assert "hazard ratios in [1e-08, 1e+08]" in capsys.readouterr().err
    assert not list(tmp_path.glob("g.*"))
    # a config flag that is not a boolean is refused, not read as false
    cfg = tmp_path / "flag.cfg"
    cfg.write_text("theta1 = 0.7\ntwo_sided = maybe\n")
    assert main(["analyze", null_dataset, "--config", str(cfg)]) == EXIT_USAGE
    assert "option 'two_sided'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["audit", "--alpha", "0.01"], "--alpha"),
        (["analyze", "DATA", "--test", "exact", "--theta1", "0.7", "--prior", "point:0.5"], "--prior"),
        (["analyze", "DATA", "--test", "exact", "--theta1", "0.7", "--allow-unbalanced-gaussian"],
         "--allow-unbalanced-gaussian"),
        (["analyze", "DATA", "--test", "plugin", "--theta1", "0.7"], "--theta1"),
        (["analyze", "DATA", "--test", "plugin", "--theta1", "0"], "--theta1"),  # a falsy value
        (["analyze", "DATA", "--test", "bayes", "--theta1", "0.7", "--prior", "point:0.5"], "--theta1"),
        (["confseq", "DATA", "--theta1", "0.7"], "--theta1"),
        (["confseq", "DATA", "--prior", "point:0.5"], "--prior"),
        # values that cannot be acted on name their flag, before any input is read
        (["analyze", "DATA", "--test", "bayes"], "--prior"),
        (["analyze", "DATA", "--test", "bayes", "--prior", "lognormal:"], "--prior"),
        (["analyze", "DATA", "--test", "bayes", "--prior", "lognormal:0.7,0.5,2"], "--prior"),
        (["analyze", "DATA", "--test", "bayes", "--prior", "point:x"], "--prior"),
        (["confseq", "DATA", "--numerator", "bayes", "--prior", "gamma:2"], "--prior"),
        (["analyze", "DATA", "--theta1", "0.7", "--alpha", "1.5"], "--alpha"),
        (["confseq", "DATA", "--grid", "0.5:2"], "--grid"),
        (["design", "--test", "exact"], "--theta1"),
        (["boundary", "--nmax", "100"], "--theta1"),
        (["boundary", "--theta1", "0.7", "--nmax", "100", "--n-from", "50", "--n-to", "10"], "--n-from"),
        (["audit", "--theta-from", "2", "--theta-to", "1"], "--theta-from"),
        (["audit", "--ratios", "1-1"], "--ratios"),
        (["audit", "--ratios", "1:1,0:1"], "--ratios"),
    ],
)
def test_flags_the_chosen_test_ignores_are_refused(argv, flag, null_dataset, tmp_path, capsys):
    argv = [null_dataset if a == "DATA" else a for a in argv]
    assert main(argv + ["--out", str(tmp_path / "r")]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize(
    "argv,text,flag",
    [
        (["analyze", "DATA", "--theta1", "0.7"], "alpha = abc", "'alpha'"),
        (["analyze", "DATA", "--theta1", "0.7"], "test = zebra", "--test"),
        (["confseq", "DATA"], "numerator = zebra", "--numerator"),
    ],
)
def test_config_values_that_cannot_be_acted_on_are_refused(argv, text, flag, null_dataset, tmp_path, capsys):
    # the values the command line's choices would refuse are checked when a config file gives them
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# a comment line\n\n{text}\n")
    argv = [null_dataset if a == "DATA" else a for a in argv]
    assert main(argv + ["--config", str(cfg), "--out", str(tmp_path / "r")]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


@pytest.mark.parametrize("command", ["analyze", "confseq"])
def test_bayes_priors_parse(command, strong_dataset, tmp_path, capsys):
    test = ["--test", "bayes"] if command == "analyze" else ["--numerator", "bayes"]
    reports = {}
    for flags in (["--theta1", "0.7"], ["--prior", "lognormal:0.7"], ["--prior", "lognormal:0.7,0.3"],
                  ["--prior", "point:0.7"]):
        out = tmp_path / flags[-1].replace(":", "-")
        assert main([command, strong_dataset, *test, *flags, "--out", str(out)]) in (EXIT_CONTINUE, EXIT_REJECT)
        reports[flags[-1]] = (tmp_path / f"{out.name}.csv").read_bytes()
    # a default prior centred at --theta1 is lognormal:THETA1, and the sd changes the prior
    assert reports["0.7"] == reports["lognormal:0.7"] != reports["lognormal:0.7,0.3"]


def test_a_point_prior_gives_the_exact_test(strong_dataset, tmp_path, capsys):
    # a point mass's Bayes factor is the likelihood ratio at that point
    main(["analyze", strong_dataset, "--test", "bayes", "--prior", "point:0.7", "--out", str(tmp_path / "b")])
    main(["analyze", strong_dataset, "--test", "exact", "--theta1", "0.7", "--out", str(tmp_path / "e")])
    bayes, exact = (json.loads((tmp_path / f"{name}.json").read_text())["rows"] for name in ("b", "e"))
    assert len(bayes) == len(exact) > 100
    assert max(abs(b["log10_e"] - e["log10_e"]) for b, e in zip(bayes, exact)) <= 1e-12


def test_design_names_a_kind_it_does_not_size_before_simulating(monkeypatch, capsys):
    import safelogrank.simulate as simulate

    def simulated(*args, **kwargs):
        raise AssertionError("simulated before refusing the kind")

    monkeypatch.setattr(simulate, "_stopping_times", simulated)
    assert main(["design", "--theta1", "0.7", "--test", "exact,bayes"]) == EXIT_USAGE
    assert "'bayes'" in capsys.readouterr().err


def test_gaussian_analyze_without_events_continues(tmp_path, capsys):
    path = tmp_path / "censored.csv"
    path.write_text("time,group,status\n1,0,censored\n2,1,censored\n")
    assert main(["analyze", str(path), "--test", "gaussian", "--theta1", "0.7"]) == EXIT_CONTINUE
    assert "final_log10_e: 0" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


def test_gaussian_guard_on_unbalanced_data(tmp_path, capsys):
    stream = sample_single_event_stream(60, 20, 0.7, stream_rng(5, 0))
    path = tmp_path / "unbalanced.csv"
    write_dataset(dataset_from_stream(stream), str(path))
    code = main(["analyze", str(path), "--test", "gaussian", "--theta1", "0.7"])
    assert code == EXIT_USAGE
    assert "--allow-unbalanced-gaussian" in capsys.readouterr().err
    code = main([
        "analyze", str(path), "--test", "gaussian", "--theta1", "0.7",
        "--allow-unbalanced-gaussian",
    ])
    assert code in (EXIT_CONTINUE, EXIT_REJECT)


def test_gaussian_guard_on_extreme_theta(strong_dataset):
    assert main(["analyze", strong_dataset, "--test", "gaussian",
                 "--theta1", "0.2"]) == EXIT_USAGE


def test_analyze_reports_are_byte_deterministic(strong_dataset, tmp_path, capsys):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    args = ["analyze", strong_dataset, "--test", "plugin"]
    main(args + ["--out", str(out1)])
    main(args + ["--out", str(out2)])
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_analyze_is_streaming_consistent(tmp_path, capsys):
    stream = sample_single_event_stream(40, 40, 0.6, stream_rng(9, 0))
    full = tmp_path / "full.csv"
    prefix = tmp_path / "prefix.csv"
    write_dataset(dataset_from_stream(stream), str(full))
    head = sample_single_event_stream(40, 40, 0.6, stream_rng(9, 0), max_events=30)
    write_dataset(dataset_from_stream(head), str(prefix))
    args = ["--test", "plugin", "--alpha", "1e-9"]
    main(["analyze", str(full), *args, "--out", str(tmp_path / "f")])
    main(["analyze", str(prefix), *args, "--out", str(tmp_path / "p")])
    full_rows = (tmp_path / "f.csv").read_text().splitlines()
    prefix_rows = (tmp_path / "p.csv").read_text().splitlines()
    # the prefix report is literally a prefix of the full report, except the
    # censoring of the leftovers perturbs the final risk row; compare the
    # first 29 event rows plus header
    assert full_rows[:30] == prefix_rows[:30]


def test_meta_combines_by_multiplication(tmp_path, capsys):
    paths = []
    finals = []
    for rep in range(2):
        stream = sample_single_event_stream(50, 50, 0.5, stream_rng(300, rep))
        p = tmp_path / f"site{rep}.csv"
        write_dataset(dataset_from_stream(stream), str(p))
        paths.append(str(p))
        main(["analyze", str(p), "--theta1", "0.5", "--out", str(tmp_path / f"r{rep}")])
        report = json.loads((tmp_path / f"r{rep}.json").read_text())
        finals.append(report["summary"]["final_log10_e"])
    main([
        "analyze", paths[0], "--meta", paths[1], "--theta1", "0.5",
        "--out", str(tmp_path / "combined"),
    ])
    combined = json.loads((tmp_path / "combined.json").read_text())
    assert combined["summary"]["combined_log10_e"] == pytest.approx(sum(finals), abs=1e-12)


def test_meta_refuses_the_same_dataset_twice(tmp_path, capsys):
    # one study alone continues; listed twice, its e-value would multiply
    # itself past 1/alpha
    stream = sample_single_event_stream(60, 60, 0.6, stream_rng(10, 0), max_events=40)
    write_dataset(dataset_from_stream(stream), str(tmp_path / "m.csv"))
    (tmp_path / "sub").mkdir()
    path = str(tmp_path / "m.csv")
    assert main(["analyze", path, "--theta1", "0.5"]) == EXIT_CONTINUE
    capsys.readouterr()
    for again in (path, str(tmp_path / "sub" / ".." / "m.csv")):
        argv = ["analyze", path, "--theta1", "0.5", "--meta", again, "--out", str(tmp_path / "combined")]
        assert main(argv) == EXIT_USAGE
        assert f"{again} is the same file as {path}" in capsys.readouterr().err
        assert not (tmp_path / "combined.json").exists()


def test_meta_rejects_only_on_the_product(tmp_path, capsys):
    # study 0 crosses 1/alpha on its own; study 1 carries strong evidence the
    # other way, so the product of the final e-values stays below 1/alpha
    paths = []
    for rep, theta in enumerate((0.5, 2.0)):
        stream = sample_single_event_stream(50, 50, theta, stream_rng(300, rep))
        p = tmp_path / f"site{rep}.csv"
        write_dataset(dataset_from_stream(stream), str(p))
        paths.append(str(p))
    code = main([
        "analyze", paths[0], "--meta", paths[1], "--theta1", "0.5",
        "--out", str(tmp_path / "combined"),
    ])
    summary = json.loads((tmp_path / "combined.json").read_text())["summary"]
    assert [s["decision"] for s in summary["per_dataset"]] == ["reject", "continue"]
    assert summary["combined_log10_e"] < math.log10(20.0)
    assert summary["decision"] == "continue"
    assert code == EXIT_CONTINUE


def test_config_file_with_flag_override(null_dataset, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta1 = 0.7\nalpha = 0.05  # run level\ntest = exact\n")
    code = main(["analyze", null_dataset, "--config", str(cfg)])
    assert code in (EXIT_CONTINUE, EXIT_REJECT)
    out = capsys.readouterr().out
    assert "alpha: 0.05" in out
    # the flag beats the config value
    main(["analyze", null_dataset, "--config", str(cfg), "--alpha", "0.2"])
    assert "alpha: 0.2" in capsys.readouterr().out


def test_config_flags_read_booleans_in_any_case(null_dataset, tmp_path, capsys):
    main(["analyze", null_dataset, "--theta1", "0.7", "--two-sided"])
    two_sided = capsys.readouterr().out
    main(["analyze", null_dataset, "--theta1", "0.7"])
    one_sided = capsys.readouterr().out
    assert two_sided != one_sided
    cfg = tmp_path / "flag.cfg"
    for value, want in [("1", two_sided), ("True", two_sided), ("YES", two_sided), ("on", two_sided),
                        ("0", one_sided), ("false", one_sided), ("No", one_sided), ("OFF", one_sided)]:
        cfg.write_text(f"theta1 = 0.7\ntwo_sided = {value}\n")
        main(["analyze", null_dataset, "--config", str(cfg)])
        assert capsys.readouterr().out == want, value


def test_config_rejects_malformed_line(null_dataset, tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("alpha 0.05\n")
    assert main(["analyze", null_dataset, "--config", str(cfg)]) == EXIT_USAGE


def test_config_refuses_a_key_no_command_knows(null_dataset, tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("theta1 = 0.7\nalpah = 0.01\n")
    assert main(["analyze", null_dataset, "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}:2: no command has an option 'alpah'" in capsys.readouterr().err
    # a key of another command stays accepted: one file may serve several
    cfg.write_text("theta1 = 0.7\nalpha = 0.01\nreps = 20\nobf-cap = 50\n")
    assert main(["analyze", null_dataset, "--config", str(cfg)]) == EXIT_CONTINUE
    assert "alpha: 0.01" in capsys.readouterr().out


def test_config_refuses_meta(tmp_path, capsys):
    # a config file cannot name further datasets: the command would print
    # the one-dataset decision, not the combined one the file asks for
    paths = []
    for name, seed in (("m.csv", 10), ("m2.csv", 11)):
        stream = sample_single_event_stream(60, 60, 0.5, stream_rng(seed, 0))
        paths.append(str(tmp_path / name))
        write_dataset(dataset_from_stream(stream), paths[-1])
    cfg = tmp_path / "meta.cfg"
    cfg.write_text(f"theta1 = 0.5\nmeta = {paths[1]}\n")
    assert main(["analyze", paths[0], "--config", str(cfg)]) == EXIT_USAGE
    assert f"{cfg}:2: give --meta on the command line" in capsys.readouterr().err


def test_design_with_a_cap_before_every_first_batch(tmp_path, capsys):
    # every tied stream's first batch holds more events than the cap, so no
    # replication has a batch within it and none ever stops
    code = main([
        "design", "--theta1", "0.7", "--true-theta", "1", "--tie-h0", "0.5", "--m1", "300",
        "--m0", "300", "--reps", "5", "--cap", "5", "--out", str(tmp_path / "d"),
    ])
    assert code == EXIT_CONTINUE
    summary = json.loads((tmp_path / "d.json").read_text())["summary"]
    assert summary["unattained_power"] == [{"test_kind": "exact", "requested": 0.8, "achieved": 0.0}]


def test_design_emits_reference_and_rows(tmp_path, capsys):
    code = main([
        "design", "--theta1", "0.5", "--m1", "300", "--m0", "300",
        "--reps", "120", "--seed", "3", "--cap", "200",
        "--out", str(tmp_path / "design"),
    ])
    assert code == EXIT_CONTINUE
    report = json.loads((tmp_path / "design.json").read_text())
    assert report["summary"]["schoenfeld_n_fixed"] == 52
    kinds = [r["test"] for r in report["rows"]]
    assert kinds == ["exact", "fixed-classical"]
    csv_lines = (tmp_path / "design.csv").read_text().splitlines()
    assert csv_lines[0] == "test,n_max,mean_capped,conditional_mean,power,ratio_n_max,ratio_mean"


def test_env_seed_is_read_only_when_no_seed_is_set(tmp_path, monkeypatch, capsys):
    argv = ["design", "--theta1", "0.7", "--m1", "50", "--m0", "50", "--reps", "20"]
    main(argv + ["--seed", "3"])
    seeded = capsys.readouterr().out
    monkeypatch.setenv("SAFELOGRANK_SEED", "3")
    main(argv)
    assert capsys.readouterr().out == seeded
    monkeypatch.setenv("SAFELOGRANK_SEED", "abc")
    assert main(argv + ["--seed", "3"]) == EXIT_CONTINUE
    assert capsys.readouterr().out == seeded
    cfg = tmp_path / "seed.cfg"
    cfg.write_text("seed = 3\n")
    assert main(argv + ["--config", str(cfg)]) == EXIT_CONTINUE
    assert capsys.readouterr().out == seeded
    assert main(argv) == EXIT_USAGE
    assert "SAFELOGRANK_SEED must be an integer, got 'abc'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["--seed", "config", "SAFELOGRANK_SEED"])
def test_a_negative_seed_is_refused_naming_its_source(source, tmp_path, monkeypatch, capsys):
    argv = ["design", "--theta1", "0.7", "--m1", "50", "--m0", "50", "--reps", "20"]
    if source == "--seed":
        argv += ["--seed", "-2"]
        want = "--seed must be a nonnegative integer, got -2"
    elif source == "config":
        cfg = tmp_path / "seed.cfg"
        cfg.write_text("seed = -2\n")
        argv += ["--config", str(cfg)]
        want = f"seed in {cfg} must be a nonnegative integer, got -2"
    else:
        monkeypatch.setenv("SAFELOGRANK_SEED", "-2")
        want = "SAFELOGRANK_SEED must be a nonnegative integer, got -2"
    assert main(argv + ["--out", str(tmp_path / "a")]) == EXIT_USAGE
    assert want in capsys.readouterr().err
    assert not list(tmp_path.glob("a.*"))


@pytest.mark.parametrize(
    "flags,want",
    [
        (["--power", "1.5"], "power must be in (alpha, 1) so that alpha + beta < 1, got 1.5"),
        (["--power", "0.01"], "power must be in (alpha, 1) so that alpha + beta < 1, got 0.01"),
        (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    ],
)
def test_design_names_a_bad_alpha_or_power(flags, want, capsys):
    assert main(["design", "--theta1", "0.7", "--reps", "5"] + flags) == EXIT_USAGE
    assert want in capsys.readouterr().err


def test_design_deterministic_under_seed(tmp_path):
    args = [
        "design", "--theta1", "0.6", "--m1", "200", "--m0", "200",
        "--reps", "80", "--seed", "11", "--cap", "250",
    ]
    main(args + ["--out", str(tmp_path / "x")])
    main(args + ["--out", str(tmp_path / "y")])
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()


def test_design_rejects_null_alternative():
    assert main(["design", "--theta1", "1.0"]) == EXIT_USAGE


def test_design_with_ties(tmp_path):
    code = main([
        "design", "--theta1", "0.5", "--m1", "80", "--m0", "80",
        "--reps", "40", "--tie-h0", "0.05", "--cap", "160",
        "--out", str(tmp_path / "tied"),
    ])
    assert code == EXIT_CONTINUE
    report = json.loads((tmp_path / "tied.json").read_text())
    assert report["rows"], "tied design should still size the test"


def test_design_tie_h0_refuses_the_obf_comparator(tmp_path):
    tied = ["design", "--theta1", "0.5", "--m1", "80", "--m0", "80", "--reps", "20",
            "--tie-h0", "0.05"]
    assert main(tied + ["--obf", "--out", str(tmp_path / "a")]) == EXIT_USAGE
    assert main(tied + ["--obf-cap", "100", "--out", str(tmp_path / "b")]) == EXIT_USAGE
    assert main(tied + ["--obf", "--obf-cap", "100", "--out", str(tmp_path / "c")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())


def test_design_obf_cap_needs_obf(tmp_path):
    single = ["design", "--theta1", "0.7", "--m1", "300", "--m0", "300", "--reps", "50"]
    assert main(single + ["--obf-cap", "100", "--out", str(tmp_path / "a")]) == EXIT_USAGE
    assert not list(tmp_path.iterdir())
    assert main(single + ["--obf", "--obf-cap", "100", "--out", str(tmp_path / "b")]) == EXIT_CONTINUE


@pytest.mark.parametrize(
    "flags",
    [["--cap", "0"], ["--cap", "-5"], ["--obf", "--obf-cap", "0"], ["--obf", "--obf-cap", "-5"]],
)
def test_design_refuses_caps_below_one(flags, tmp_path, capsys):
    single = ["design", "--theta1", "0.7", "--m1", "100", "--m0", "100", "--reps", "20"]
    assert main(single + flags + ["--out", str(tmp_path / "a")]) == EXIT_USAGE
    assert "cap must be >= 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_cli_import_loads_only_numpy_and_the_standard_library():
    # the package needs numpy and nothing else: importing the CLI into a
    # fresh interpreter adds no top-level package but numpy, safelogrank
    # and the standard library's (so no scipy, and no new import-time work
    # from elsewhere)
    import subprocess
    import sys

    import safelogrank

    code = (
        "import sys; startup = set(sys.modules); import safelogrank.cli; "
        "added = {m.split('.')[0] for m in set(sys.modules) - startup}; "
        "print(sorted(added - {'numpy', 'safelogrank'} - set(sys.stdlib_module_names)))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(safelogrank.__file__)))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_design_tie_h0_honors_cap(tmp_path):
    tied = ["design", "--theta1", "0.5", "--m1", "200", "--m0", "200", "--reps", "60",
            "--seed", "4", "--tie-h0", "0.02"]
    assert main(tied + ["--out", str(tmp_path / "full")]) == EXIT_CONTINUE
    assert main(tied + ["--cap", "40", "--out", str(tmp_path / "capped")]) == EXIT_CONTINUE
    full = json.loads((tmp_path / "full.json").read_text())
    capped = json.loads((tmp_path / "capped.json").read_text())
    exact = {r["test"]: r for r in full["rows"]}["exact"]
    assert exact["n_max"] > 40
    # fewer than 80% of the streams stop within 40 events, so no exact row
    assert [r["test"] for r in capped["rows"]] == ["fixed-classical"]
    (unattained,) = capped["summary"]["unattained_power"]
    assert unattained["test_kind"] == "exact" and unattained["achieved"] < 0.8


def test_boundary_table_values(tmp_path, capsys):
    code = main([
        "boundary", "--theta1", "0.7", "--nmax", "100", "--alpha", "0.05",
        "--out", str(tmp_path / "bounds"),
    ])
    assert code == EXIT_CONTINUE
    report = json.loads((tmp_path / "bounds.json").read_text())
    rows = {r["n"]: r for r in report["rows"]}
    assert rows[100]["obrien_fleming"] == pytest.approx(-1.9599639845, abs=1e-6)
    assert rows[50]["fixed_classical"] == pytest.approx(-1.6448536269514722, abs=1e-9)
    # the gaussian-safe threshold at n solves the e-value level-set equation
    from safelogrank.gaussian import log_gaussian_evalue, schoenfeld_mu

    mu1 = schoenfeld_mu(0.7, 1, 1)
    z40 = rows[40]["gaussian_safe"]
    assert log_gaussian_evalue(40, z40, mu1) == pytest.approx(math.log(20.0), abs=1e-9)


def test_boundary_past_the_horizon_and_without_one(tmp_path):
    argv = ["boundary", "--theta1", "0.7", "--n-to", "8"]
    assert main(argv + ["--nmax", "5", "--out", str(tmp_path / "b")]) == EXIT_CONTINUE
    rows = json.loads((tmp_path / "b.json").read_text())["rows"]
    assert [r["obrien_fleming"] is None for r in rows] == [False] * 5 + [True] * 3
    assert main(argv + ["--nmax", "0", "--out", str(tmp_path / "c")]) == EXIT_USAGE
    assert not (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("nmax", ["0", "-3"])
def test_boundary_names_nmax_when_it_is_below_one(nmax, tmp_path, capsys):
    # --n-to defaults to --nmax, so the range check would name flags that
    # were never given
    argv = ["boundary", "--theta1", "0.7", "--nmax", nmax, "--out", str(tmp_path / "b")]
    assert main(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--nmax" in err and ">= 1" in err and "n-from" not in err
    assert not (tmp_path / "b.csv").exists()


def test_confseq_rows_and_intersection(tmp_path, capsys):
    stream = sample_single_event_stream(60, 60, 0.7, stream_rng(12, 0))
    data_path = tmp_path / "trial.csv"
    write_dataset(dataset_from_stream(stream), str(data_path))
    code = main([
        "confseq", str(data_path), "--grid", "0.1:10:80",
        "--out", str(tmp_path / "cs"),
    ])
    assert code == EXIT_CONTINUE
    report = json.loads((tmp_path / "cs.json").read_text())
    assert len(report["rows"]) == 120
    final = report["rows"][-1]
    assert final["lower"] < 1.0 < final["upper"] or final["upper"] < 1.0

    main([
        "confseq", str(data_path), "--grid", "0.1:10:80", "--intersect",
        "--out", str(tmp_path / "cs_int"),
    ])
    nested = json.loads((tmp_path / "cs_int.json").read_text())
    lowers = [r["lower"] for r in nested["rows"]]
    uppers = [r["upper"] for r in nested["rows"]]
    assert all(a <= b + 1e-12 for a, b in zip(lowers, lowers[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(uppers, uppers[1:]))


def test_audit_flags_unbalanced_leakage(tmp_path, capsys):
    code = main([
        "audit", "--theta-from", "0.1", "--theta-to", "2.0", "--points", "21",
        "--ratios", "1:1,3:1", "--scale", "60",
        "--out", str(tmp_path / "audit"),
    ])
    assert code == EXIT_CONTINUE
    report = json.loads((tmp_path / "audit.json").read_text())
    assert report["summary"]["max_audit_1_1"] <= 1.0 + 1e-9
    assert report["summary"]["max_audit_3_1"] > 1.0
    balanced = [r["audit_1_1"] for r in report["rows"]]
    assert all(v <= 1.0 + 1e-12 for v in balanced)


def test_two_sided_analyze_runs(strong_dataset, capsys):
    code = main([
        "analyze", strong_dataset, "--theta-min", "0.5", "--two-sided",
    ])
    assert code == EXIT_REJECT


def test_boundary_z_uses_the_allocation_of_the_trace(tmp_path, capsys):
    stream = sample_single_event_stream(300, 100, 0.5, stream_rng(3, 0))
    path = tmp_path / "unbalanced.csv"
    write_dataset(dataset_from_stream(stream), str(path))
    code = main([
        "analyze", str(path), "--test", "gaussian", "--theta1", "0.5",
        "--allow-unbalanced-gaussian", "--out", str(tmp_path / "r"),
    ])
    assert code == EXIT_REJECT
    report = json.loads((tmp_path / "r.json").read_text())
    rows = report["rows"]
    by_trace = next(r["n"] for r in rows if r["log10_e"] >= math.log10(20.0))
    by_z = next(r["n"] for r in rows if r["z"] <= r["boundary_z"])
    assert by_z == by_trace == report["summary"]["reject_at_n"]


def test_boundary_z_balanced_is_the_balanced_boundary(strong_dataset, tmp_path, capsys):
    from safelogrank.gaussian import gaussian_safe_boundary

    main(["analyze", strong_dataset, "--test", "gaussian", "--theta1", "0.5",
          "--out", str(tmp_path / "r")])
    rows = json.loads((tmp_path / "r.json").read_text())["rows"]
    assert [r["boundary_z"] for r in rows] == [
        gaussian_safe_boundary(r["n"], 0.5, 0.05) for r in rows
    ]


def test_out_refuses_to_overwrite_an_input(null_dataset, tmp_path, capsys):
    original = Path(null_dataset).read_bytes()
    other = tmp_path / "other.csv"
    other.write_bytes(original)
    link = tmp_path / "link.csv"
    os.symlink(null_dataset, link)
    base = null_dataset[:-4]
    for argv in (
        ["analyze", null_dataset, "--theta1", "0.7", "--out", base],
        ["analyze", null_dataset, "--theta1", "0.7", "--out", null_dataset],
        ["analyze", null_dataset, "--theta1", "0.7", "--out", str(tmp_path / "link")],
        ["analyze", str(other), "--meta", null_dataset, "--theta1", "0.7", "--out", base],
        ["confseq", null_dataset, "--out", base],
    ):
        assert main(argv) == EXIT_USAGE
        assert "overwrite" in capsys.readouterr().err
    assert Path(null_dataset).read_bytes() == original
    assert not os.path.exists(base + ".json")


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "DATA", "--theta1", "0.7"],
        ["confseq", "DATA"],
        ["design", "--theta1", "0.7"],
        ["boundary", "--theta1", "0.7", "--nmax", "100"],
        ["audit"],
    ],
)
def test_out_into_a_missing_directory_is_refused_before_any_work(
    argv, null_dataset, tmp_path, monkeypatch, capsys
):
    def no_work(*_args, **_kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("read_dataset", "design_table", "gaussian_safe_boundary", "null_expectation_audit"):
        monkeypatch.setattr(cli, name, no_work)
    missing = tmp_path / "missing"
    argv = [null_dataset if a == "DATA" else a for a in argv]
    assert main(argv + ["--out", str(missing / "report")]) == EXIT_USAGE
    assert f"the directory {missing} does not exist" in capsys.readouterr().err
    assert not missing.exists()


def test_out_naming_no_file_is_refused(tmp_path, capsys):
    for out in (f"{tmp_path}/", f"{tmp_path}/.csv", ".csv"):
        assert main(["audit", "--points", "3", "--out", out]) == EXIT_USAGE
        assert "names no file" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_reports_are_standard_json(strong_dataset, tmp_path, capsys):
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    # the first event time takes its whole 1:1 risk set, so the logrank
    # variance, z and the Gaussian e-value start out undefined
    tied_first = tmp_path / "tie-first.csv"
    tied_first.write_text(
        "entry,time,group,status\n0,1,1,event\n0,1,0,event\n1,2,1,event\n"
        "1,3,0,event\n1,4,1,censored\n1,4,0,censored\n"
    )
    small = ["--m1", "100", "--m0", "100", "--reps", "40", "--seed", "1", "--cap", "150"]
    runs = [
        ["analyze", strong_dataset, "--theta1", "0.5"],
        ["analyze", strong_dataset, "--theta1", "0.5", "--two-sided"],
        ["analyze", strong_dataset, "--test", "plugin"],
        ["analyze", strong_dataset, "--test", "bayes", "--theta1", "0.5"],
        ["analyze", str(tied_first), "--test", "gaussian", "--theta1", "0.7"],
        ["analyze", str(tied_first), "--meta", strong_dataset, "--test", "gaussian",
         "--theta1", "0.7", "--allow-unbalanced-gaussian"],
        ["design", "--theta1", "0.5", "--test", "exact,gaussian,plugin", "--obf", *small],
        ["design", "--theta1", "0.5", "--true-theta", "2.0", "--tie-h0", "0.05", *small],
        ["confseq", strong_dataset, "--grid", "0.9:1.1:3"],
    ]
    for i, argv in enumerate(runs):
        assert main(argv + ["--out", str(tmp_path / f"r{i}")]) in (EXIT_CONTINUE, EXIT_REJECT)
        report = json.loads((tmp_path / f"r{i}.json").read_text(), parse_constant=refuse)
        assert report["rows"] or report["summary"]
    first = json.loads((tmp_path / "r4.json").read_text())["rows"][0]
    assert first["z"] is None and first["log10_e"] is None
    assert json.loads((tmp_path / "r7.json").read_text())["summary"]["wald_expected_stopping"] is None
