import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import querybound
from querybound.boolfn import derive_seeds, make_family, sample_uniform, write_truth_table
from querybound import boolfn, certify, cli, fourier_operator
from querybound.cli import main, run_claim1_sweep
from querybound.fourier_operator import build_dense
from querybound.interrogation import simulate_exact, simulate_sampled
from querybound.moments import EvennessEntry, evenness_check
from querybound.transforms import binomial_sum, parse_bitstring

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "docs" / "golden"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "cases.json").read_text())


def run_cli(tmp_path, argv, name="out.txt"):
    out = tmp_path / name
    code = main([*argv, "--out", str(out)])
    return code, out.read_text()


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_vandam_exact_pinned(tmp_path):
    code, text = run_cli(tmp_path, ["vandam", "--n", "4", "--t", "2", "--x", "0101"])
    assert code == 0
    rows = parse_csv(text)
    assert len(rows) == 1
    assert float(rows[0]["success_probability"]) == 0.6875
    assert rows[0]["b"] == "11"
    assert rows[0]["x"] == "0101"


@pytest.mark.parametrize("n, t, printed", [("1", "0", "0.5"), ("2", "1", "0.75")])
def test_vandam_prints_b_over_2_to_the_n_exactly(tmp_path, n, t, printed):
    # B / 2^n is a dyadic rational: the row prints it exactly, not a squared rounded amplitude
    code, text = run_cli(tmp_path, ["vandam", "--n", n, "--t", t])
    assert code == 0
    assert parse_csv(text)[0]["success_probability"] == printed


def test_vandam_eps_selects_t(tmp_path):
    code, text = run_cli(tmp_path, ["vandam", "--n", "8", "--eps", "0.1"])
    rows = parse_csv(text)
    assert code == 0
    assert rows[0]["t"] != ""
    assert rows[0]["reference_t"] != ""
    assert 1 - float(rows[0]["success_probability"]) <= 0.1


def test_vandam_sampled_deterministic(tmp_path):
    argv = ["vandam", "--n", "6", "--t", "3", "--x", "110100", "--shots", "400", "--seed", "3"]
    _, a = run_cli(tmp_path, argv, "a.csv")
    _, b = run_cli(tmp_path, argv, "b.csv")
    assert a == b
    row = parse_csv(a)[0]
    assert int(row["recovered_count"]) <= 400


def test_simulations_and_evenness_return_bare_values(tmp_path):
    for n, t, x in ((4, 2, 0b0101), (12, 7, 1234), (24, 15, 0xA5C3E1)):
        p = simulate_exact(n, t, x)
        assert type(p) is float and p == binomial_sum(n, t) / 2**n
    counts = simulate_sampled(8, 3, 0b10110001, shots=777, seed=5)
    assert type(counts) is dict and all(type(k) is int for k in counts)
    assert list(counts) == sorted(counts) and sum(counts.values()) == 777
    entries = evenness_check(3, 4, trials=6, seed=2)
    assert type(entries) is tuple and all(type(e) is EvennessEntry for e in entries)
    for name in ("InterrogationOutcome", "EvennessReport", "success_probability_closed_form"):
        assert not hasattr(querybound, name), name

    n, x, shots, seed = 10, "0110100111", 300, 8
    code, text = run_cli(tmp_path, ["vandam", "--n", str(n), "--eps", "0.25", "--x", x,
                                    "--shots", str(shots), "--seed", str(seed), "--format", "json"])
    assert code == 0
    row, target = json.loads(text)["rows"][0], parse_bitstring(x)
    hits = simulate_sampled(n, row["t"], target, shots, seed).get(target, 0)
    assert row["recovered_count"] == hits
    assert row["recovered_frequency"] == hits / shots
    assert row["success_probability"] == simulate_exact(n, row["t"], target)


def test_vandam_requires_t_or_eps(tmp_path, capsys):
    code = main(["vandam", "--n", "4"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_vandam_shots_require_seed(tmp_path, capsys):
    code = main(["vandam", "--n", "4", "--t", "2", "--shots", "10"])
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["vandam", "--n", "4", "--t", "2", "--shots", "10"],
        ["norm", "--family", "parity", "--n", "6", "--t", "2"],
        ["certify", "--n", "6", "--eps", "0.1", "--trials", "2"],
        ["moments", "--method", "mc", "--family", "parity", "--n", "4", "--t", "1", "--trials", "2"],
        ["claim1-sweep", "--ns", "6", "--trials", "1"],
        ["claim2-verify", "--n", "3", "--evenness", "--m", "4", "--trials", "2"],
    ],
    ids=["vandam", "norm", "certify", "moments", "claim1-sweep", "claim2-verify"],
)
def test_negative_seed_is_refused(argv, capsys):
    code = main([*argv, "--seed", "-1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


def test_norm_pinned_identity(tmp_path):
    code, text = run_cli(tmp_path, ["norm", "--family", "constant_plus", "--n", "8", "--t", "3"])
    row = parse_csv(text)[0]
    assert code == 0
    assert float(row["norm"]) == 1.0
    assert row["method"] == "dense_eigen"
    assert row["converged"] == "true"


def test_norm_matrix_free_mode(tmp_path):
    code, text = run_cli(
        tmp_path,
        ["norm", "--family", "parity", "--n", "6", "--t", "3", "--matrix-free", "--seed", "5"],
    )
    row = parse_csv(text)[0]
    assert code == 0
    assert row["mode"] == "matrix_free"
    assert abs(float(row["norm"]) - 1.0) < 1e-6


def test_norm_dense_over_budget_fails(tmp_path, capsys):
    code = main(["norm", "--family", "parity", "--n", "13", "--t", "13", "--dense"])
    assert code == 1


@pytest.mark.parametrize("argv", [["norm", "--dense"], ["moments", "--method", "exact"]],
                         ids=["norm", "moments"])
def test_dense_past_the_budget_names_the_budget(argv, capsys):
    code = main([*argv, "--family", "parity", "--n", "14", "--t", "7"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: B=9908 exceeds the dense budget 4096\n"


def test_norm_function_file(tmp_path):
    path = tmp_path / "f.txt"
    write_truth_table(make_family("constant_plus", 5), path)
    code, text = run_cli(tmp_path, ["norm", "--function-file", str(path), "--t", "2"])
    row = parse_csv(text)[0]
    assert code == 0
    assert float(row["norm"]) == 1.0
    assert row["function"].startswith("file:")


def test_certify_parity_row(tmp_path):
    code, text = run_cli(tmp_path, ["certify", "--family", "parity", "--n", "6", "--eps", "0.1"])
    row = parse_csv(text)[0]
    assert code == 0
    assert row["lower_bound_t"] == "3"
    assert row["status"] == "certified"
    assert json.loads(row["norms"]) == [0.0, 0.0, 0.0, 1.0]


def test_certify_parity_14_zero_norms_past_dense_cap_are_certified(tmp_path):
    # T = 5, 6 (B = 3473, 6476) are matrix-free; their exact zeros are proofs
    code, text = run_cli(tmp_path, ["certify", "--family", "parity", "--n", "14", "--eps", "0.1"])
    row = parse_csv(text)[0]
    assert code == 0
    assert row["lower_bound_t"] == "7"
    assert row["status"] == "certified"
    assert json.loads(row["norms"])[:7] == [0.0] * 7


def test_certify_sweep_rows_and_summary(tmp_path):
    argv = ["certify", "--n", "6", "--eps", "0.333", "--trials", "4", "--seed", "2",
            "--include-family", "parity"]
    code, text = run_cli(tmp_path, argv)
    rows = parse_csv(text)
    assert code == 0
    certs = [r for r in rows if r["kind"] == "certificate"]
    summaries = [r for r in rows if r["kind"] == "summary"]
    assert len(certs) == 5 and len(summaries) == 1
    assert certs[0]["function"] == "parity"
    assert summaries[0]["median_lower_bound_t"] != ""
    # determinism
    _, text2 = run_cli(tmp_path, argv, "again.csv")
    assert text == text2


@pytest.mark.parametrize("seed", [[], ["--seed", "1"]], ids=["no-seed", "seed"])
def test_certify_zero_trials_rejected(seed, capsys):
    code = main(["certify", "--family", "parity", "--n", "8", "--eps", "0.1", "--trials", "0", *seed])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")
    if seed:
        assert "trials must be >= 1, got 0" in captured.err


def test_family_past_the_bit_cap_is_an_error(capsys):
    # a 2^40 table is never allocated: make_family checks n first
    code = main(["norm", "--family", "parity", "--n", "40", "--t", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: n must lie in 1..26, got 40\n"


@pytest.mark.parametrize("ns, bad", [("-2", -2), ("12,40", 40)], ids=["negative", "past-cap"])
def test_claim1_sweep_checks_every_n_before_sampling(ns, bad, monkeypatch, capsys):
    def sample_uniform(n, seed):
        raise AssertionError("sampled before every n was checked")

    monkeypatch.setattr(certify, "sample_uniform", sample_uniform)
    code = main(["claim1-sweep", "--ns", ns, "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: n must lie in 1..26, got {bad}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        ("moments --method exact --family parity --n 24 --t 12", "B=9740686 exceeds the dense budget 4096"),
        ("moments --method exact --family parity --n 24 --t 2 --k 0", "k must be >= 1, got 0"),
        ("norm --family parity --n 24 --t 30", "need 0 <= t <= n, got n=24, t=30"),
        ("norm --family parity --n 24 --t 30 --matrix-free", "need 0 <= t <= n, got t=30"),
        ("norm --family parity --n 24 --t 12 --dense", "B=9740686 exceeds the dense budget 4096"),
        ("norm --family parity --n 24 --t 2 --tol 0", "tol must be positive and finite, got 0.0"),
        ("norm --family parity --n 24 --t 2 --max-iter 0", "max_iter must be >= 1, got 0"),
        ("certify --family parity --n 24 --eps 0.7", "eps must lie in (0, 0.5), got 0.7"),
        ("certify --family parity --n 24 --eps 0.1 --tol -1", "tol must be positive and finite, got -1.0"),
        ("certify --n 24 --eps 0.7 --trials 1 --seed 1", "eps must lie in (0, 0.5), got 0.7"),
        ("certify --n 24 --eps 0.1 --trials 1 --seed 1 --max-iter 0", "max_iter must be >= 1, got 0"),
        ("certify --n 24 --eps 0.7 --trials 1 --seed 1 --include-family parity",
         "eps must lie in (0, 0.5), got 0.7"),
        ("claim1-sweep --ns 24 --trials 1 --seed 1 --tol 0", "tol must be positive and finite, got 0.0"),
        ("norm --function-file {file} --t 30", "need 0 <= t <= n, got n=24, t=30"),
        ("certify --function-file {file} --eps 0.7", "eps must lie in (0, 0.5), got 0.7"),
        ("moments --method exact --function-file {file} --t 12", "B=9740686 exceeds the dense budget 4096"),
    ],
    ids=["moments-budget", "moments-k", "norm-t", "norm-t-matrix-free", "norm-budget", "norm-tol",
         "norm-max-iter", "certify-eps", "certify-tol", "sweep-eps", "sweep-max-iter", "sweep-family-eps",
         "claim1-tol", "file-norm-t", "file-certify-eps", "file-moments-budget"],
)
def test_refusals_come_before_the_first_sign_table(argv, message, tmp_path, monkeypatch, capsys):
    def no_table(*args):
        pytest.fail("a sign table was built before the refusal")

    for module in (boolfn, certify):  # the CLI reads boolfn's names, the sweeps their own imports
        monkeypatch.setattr(module, "make_family", no_table)
        monkeypatch.setattr(module, "sample_uniform", no_table)
    monkeypatch.setattr(boolfn, "_read_sign_row", no_table)
    table = tmp_path / "n24.txt"
    table.write_text("n=24\n++\n")  # a file's row is read only after every check passes
    code = main(argv.format(file=table).split())
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("ns", ["6,,8", "6,x"], ids=["empty", "not-int"])
def test_claim1_sweep_refuses_unparsable_ns(ns, capsys):
    code = main(["claim1-sweep", "--ns", ns, "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith(f"error: cannot parse --ns {ns!r}")


@pytest.mark.parametrize("tol", ["nan", "inf"])
def test_norm_refuses_a_tol_that_is_not_positive_and_finite(tol, capsys):
    code = main(["norm", "--family", "majority", "--n", "11", "--t", "3", "--matrix-free", "--tol", tol])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: tol must be positive and finite, got {tol}\n"


def test_missing_function_file_is_an_error(tmp_path, capsys):
    code = main(["norm", "--function-file", str(tmp_path / "absent.txt"), "--t", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "absent.txt" in captured.err


def test_unwritable_output_is_an_error(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    code = main(["norm", "--family", "parity", "--n", "4", "--t", "1", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 1 and not out.exists()
    assert captured.err.startswith("error: ") and "x.csv" in captured.err


@pytest.mark.parametrize(
    "argv, hint",
    [
        (["certify", "--family", "majority", "--n", "7", "--eps", "0.1", "--trials", "2", "--seed", "1"],
         "--include-family"),
        (["moments", "--method", "exhaustive", "--family", "parity", "--n", "3", "--t", "1", "--k", "1"],
         "--method exact"),
        (["moments", "--method", "mc", "--function-file", "/nonexistent", "--n", "6", "--t", "2",
          "--trials", "4", "--seed", "1"], "--method exact"),
        (["claim2-verify", "--n", "3", "--t", "1", "--m", "2", "--trials", "5"], "--evenness"),
        (["claim2-verify", "--n", "3", "--t", "1", "--parts", "1,2|3,4", "--seed", "3"], "--evenness"),
        (["claim2-verify", "--n", "3", "--evenness", "--m", "4", "--trials", "5", "--seed", "3",
          "--t", "1"], "--evenness"),
        (["claim2-verify", "--n", "3", "--evenness", "--m", "4", "--trials", "5", "--seed", "3",
          "--parts", "1,2|3,4"], "--evenness"),
        (["vandam", "--n", "4", "--t", "2", "--seed", "3"], "--shots"),
        (["certify", "--family", "parity", "--n", "6", "--eps", "0.1", "--seed", "3"], "--trials"),
        (["certify", "--family", "parity", "--n", "6", "--eps", "0.1", "--threads", "4"], "--trials"),
        (["moments", "--method", "exact", "--family", "parity", "--n", "4", "--t", "1", "--threads", "3"],
         "--method mc"),
        (["moments", "--method", "exhaustive", "--n", "3", "--t", "1", "--threads", "3"], "--method mc"),
        (["norm", "--function-file", "/nonexistent", "--family", "majority", "--n", "7", "--t", "1"],
         "--function-file"),
        (["moments", "--method", "exact", "--function-file", "/nonexistent", "--n", "4", "--t", "1"],
         "--function-file"),
    ],
    ids=["certify-trials", "moments-exhaustive", "moments-mc", "claim2-partition-trials",
         "claim2-partition-seed", "claim2-evenness-t", "claim2-evenness-parts", "vandam-seed",
         "certify-seed", "certify-threads", "moments-exact-threads", "moments-exhaustive-threads",
         "norm-file-family", "moments-file-n"],
)
def test_function_flags_a_mode_ignores_are_refused(argv, hint, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and hint in captured.err


def test_claim1_sweep_refuses_a_family_before_any_norm(monkeypatch, capsys):
    def no_transform(*args):
        pytest.fail("a transform ran before the family was refused")

    monkeypatch.setattr(boolfn, "fwht_in_place", no_transform)
    monkeypatch.setattr(fourier_operator, "fwht_in_place", no_transform)
    code = main(["claim1-sweep", "--ns", "15,16", "--trials", "2", "--seed", "1",
                 "--include-family", "majority"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: majority needs odd n (no tie rule is defined)\n"


def test_single_function_certify_refuses_include_family(capsys):
    code = main(["certify", "--family", "parity", "--n", "6", "--eps", "0.1",
                 "--include-family", "majority"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "--trials" in captured.err


@pytest.mark.parametrize("extra", [["--seed", "3"], ["--trials", "5"], ["--trials", "5", "--seed", "3"]],
                         ids=["seed", "trials", "both"])
@pytest.mark.parametrize(
    "argv",
    [["moments", "--method", "exact", "--family", "parity", "--n", "4", "--t", "1"],
     ["moments", "--method", "exhaustive", "--n", "3", "--t", "1"]],
    ids=["exact", "exhaustive"],
)
def test_exact_moments_refuse_seed_and_trials(argv, extra, capsys):
    code = main(argv + extra)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ") and "--method mc" in captured.err


def test_certify_rejects_large_eps(tmp_path, capsys):
    code = main(["certify", "--family", "parity", "--n", "4", "--eps", "0.6"])
    assert code == 1


def test_moments_exhaustive_pinned(tmp_path):
    code, text = run_cli(tmp_path, ["moments", "--method", "exhaustive", "--n", "3", "--t", "2", "--k", "1"])
    row = parse_csv(text)[0]
    assert code == 0
    assert float(row["value"]) == 49 / 8
    assert float(row["bound_ratio"]) == 1.0


def test_moments_exact_family(tmp_path):
    code, text = run_cli(tmp_path, ["moments", "--method", "exact", "--family", "parity",
                                    "--n", "4", "--t", "1", "--k", "2"])
    row = parse_csv(text)[0]
    assert code == 0
    assert float(row["value"]) == 0.0


def test_moments_mc_deterministic(tmp_path):
    argv = ["moments", "--method", "mc", "--n", "6", "--t", "2", "--k", "1",
            "--trials", "20", "--seed", "9"]
    _, a = run_cli(tmp_path, argv, "a.csv")
    _, b = run_cli(tmp_path, argv, "b.csv")
    assert a == b
    assert float(parse_csv(a)[0]["stderr"]) > 0.0


def test_claim1_sweep_rows(tmp_path):
    argv = ["claim1-sweep", "--ns", "6,8", "--trials", "4", "--seed", "1",
            "--include-family", "parity"]
    code, text = run_cli(tmp_path, argv)
    rows = parse_csv(text)
    assert code == 0
    assert [r["kind"] for r in rows] == ["random", "parity", "random", "parity"]
    for r in rows:
        if r["kind"] == "parity":
            assert abs(float(r["median_norm"])) < 1e-9
        else:
            assert 0.0 < float(r["ratio"]) < 5.0
    _, text2 = run_cli(tmp_path, argv, "again.csv")
    assert text == text2


@pytest.mark.parametrize("family", [[], ["--include-family", "parity"]], ids=["random", "family"])
def test_claim1_sweep_threads_span_every_n(tmp_path, family, monkeypatch):
    # one pool runs the norms of every n, and its rows are the serial bytes
    pools = []
    map_trials = certify.map_trials
    monkeypatch.setattr(certify, "map_trials",
                        lambda fn, items, threads: pools.append(len(items)) or map_trials(fn, items, threads))
    argv = ["claim1-sweep", "--ns", "12,13", "--trials", "2", "--seed", "1", *family]
    _, serial = run_cli(tmp_path, [*argv, "--threads", "1"], "serial.csv")
    _, pooled = run_cli(tmp_path, [*argv, "--threads", "2"], "pooled.csv")
    assert pooled.startswith("schema_version") and pooled == serial
    assert pools == [2 * 2 + (2 if family else 0)] * 2  # trials per n, plus one family norm per n


def test_run_claim1_sweep_validates_rule():
    with pytest.raises(ValueError):
        run_claim1_sweep([6], t_rule=0.7, trials=2, seed=1)


def test_claim2_partition_row(tmp_path):
    code, text = run_cli(tmp_path, ["claim2-verify", "--n", "3", "--t", "1", "--m", "2"])
    row = parse_csv(text)[0]
    assert code == 0
    assert row["total"] == "128"
    assert row["bound"] == "128"
    assert float(row["ratio"]) == 1.0


def test_claim2_parts_row(tmp_path):
    code, text = run_cli(tmp_path, ["claim2-verify", "--n", "3", "--t", "1", "--parts", "1,2|3,4"])
    row = parse_csv(text)[0]
    assert code == 0
    assert row["r"] == "2"
    assert row["total"] == "2048"


def test_claim2_evenness_rows(tmp_path):
    argv = ["claim2-verify", "--n", "3", "--evenness", "--m", "4", "--trials", "6", "--seed", "4"]
    code, text = run_cli(tmp_path, argv)
    rows = parse_csv(text)
    assert code == 0
    assert len(rows) == 6
    assert all(r["ok"] == "true" for r in rows)
    _, text2 = run_cli(tmp_path, argv, "again.csv")
    assert text == text2


@pytest.mark.parametrize("n", [5, 62, 63, 70])
def test_claim2_evenness_names_the_n_limit(n, capsys):
    # n >= 63 used to reach the sampler first and fail on numpy's int64 bounds
    code = main(["claim2-verify", "--n", str(n), "--evenness", "--m", "4", "--trials", "2", "--seed", "1"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "error: exhaustive product is limited to n <= 4\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["vandam", "--n", "-3", "--eps", "0.1"], "n must lie in 1..26, got -3"),
        (["moments", "--method", "exhaustive", "--n", "-2", "--t", "0"],
         "exhaustive expectation needs n in 1..4, got -2"),
        (["claim2-verify", "--evenness", "--n", "-1", "--m", "2", "--trials", "1", "--seed", "1"],
         "exhaustive product needs n in 1..4, got -1"),
    ],
    ids=["vandam", "moments-exhaustive", "claim2-evenness"],
)
def test_n_below_one_names_the_valid_range(argv, message, capsys):
    # these used to fail on a negative shift count before any range check
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_vandam_takes_n_up_to_the_bit_cap(capsys):
    base = ["--eps", "0.1", "--shots", "1000", "--seed", "1", "--format", "json"]
    assert main(["vandam", "--n", "26", *base]) == 0
    row = json.loads(capsys.readouterr().out)["rows"][0]
    assert (row["n"], row["shots"]) == (26, 1000)
    assert main(["vandam", "--n", "27", *base]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: n must lie in 1..26, got 27\n"


def test_csv_and_json_carry_identical_data(tmp_path):
    base = ["certify", "--family", "parity", "--n", "6", "--eps", "0.1"]
    _, csv_text = run_cli(tmp_path, [*base, "--format", "csv"], "a.csv")
    _, json_text = run_cli(tmp_path, [*base, "--format", "json"], "a.json")
    crow = parse_csv(csv_text)[0]
    jrow = json.loads(json_text)["rows"][0]
    assert set(crow) == set(jrow)
    for key, jval in jrow.items():
        cval = crow[key]
        if jval is None:
            assert cval == ""
        elif isinstance(jval, bool):
            assert cval == ("true" if jval else "false")
        elif isinstance(jval, float):
            assert float(cval) == jval
        else:
            assert cval == str(jval)


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--family", "parity", "--n", "6"])  # missing --t
    assert exc.value.code == 2


def test_norm_mode_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["norm", "--family", "parity", "--n", "6", "--t", "3", "--dense", "--matrix-free"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-4"])
@pytest.mark.parametrize(
    "argv",
    [
        ["claim1-sweep", "--ns", "6", "--trials", "2", "--seed", "1"],
        ["certify", "--n", "6", "--eps", "0.1", "--trials", "2", "--seed", "1"],
        ["moments", "--method", "mc", "--n", "6", "--t", "2", "--trials", "4", "--seed", "1"],
    ],
    ids=["claim1-sweep", "certify", "moments"],
)
def test_threads_below_one_rejected(argv, threads, capsys):
    assert main([*argv, "--threads", threads]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: threads must be >= 1, got {threads}" in captured.err


def test_schema_doc_lists_every_subcommands_columns():
    fields = {"vandam": cli.VANDAM_FIELDS, "norm": cli.NORM_FIELDS, "certify": cli.CERTIFY_FIELDS,
              "moments": cli.MOMENTS_FIELDS, "claim1-sweep": cli.CLAIM1_FIELDS,
              "claim2-verify": cli.CLAIM2_FIELDS}
    text = (GOLDEN_DIR.parent / "output-schemas.md").read_text()
    documented = {
        name: " ".join(columns.split()).split(", ")
        for name, columns in re.findall(r"^### `([^`]+)`\n\n`([^`]+)`", text, flags=re.MULTILINE)
    }
    assert set(fields) == {case["argv"][0] for case in GOLDEN_CASES.values()}  # every subcommand
    assert documented == {name: ["schema_version", "subcommand", *f] for name, f in fields.items()}


def test_stdout_output(capsys):
    code = main(["vandam", "--n", "2", "--t", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("schema_version")
    assert "1\n" in out or out.endswith("\n")


@pytest.mark.parametrize("name", list(GOLDEN_CASES))
def test_golden_outputs(tmp_path, name):
    golden = (GOLDEN_DIR / GOLDEN_CASES[name]["file"]).read_text()
    _, text = run_cli(tmp_path, GOLDEN_CASES[name]["argv"], "fresh.txt")
    assert text == golden


def test_claim1_golden_random_rows_match_dense_oracle():
    # ties the pinned matrix-free norms to eigvalsh, not to a solver's output
    case = GOLDEN_CASES["claim1-sweep"]
    rows = [r for r in parse_csv((GOLDEN_DIR / case["file"]).read_text()) if r["kind"] == "random"]
    ns = [int(r["n"]) for r in rows]
    trials, seed = int(rows[0]["trials"]), int(rows[0]["seed"])
    seeds = derive_seeds(seed, len(ns) * trials)
    for i, row in enumerate(rows):
        t = int(row["t"])
        norms = [float(np.max(np.abs(np.linalg.eigvalsh(
                     build_dense(sample_uniform(ns[i], s), t).dense_matrix))))
                 for s in seeds[i * trials:(i + 1) * trials]]
        assert float(row["median_norm"]) == pytest.approx(float(np.median(norms)), abs=1e-12)
        assert float(row["max_norm"]) == pytest.approx(max(norms), abs=1e-12)


def test_vandam_rejects_zero_shots(capsys):
    code = main(["vandam", "--n", "4", "--t", "2", "--shots", "0", "--seed", "1"])
    assert code == 1
    assert "shots" in capsys.readouterr().err


@pytest.mark.parametrize("x, got", [("010", 3), ("01000", 5)], ids=["short", "long-trailing-zero"])
def test_vandam_rejects_x_of_wrong_length(x, got, capsys):
    # both used to be accepted and print x=0100, padded or with the zero dropped
    code = main(["vandam", "--n", "4", "--t", "2", "--x", x])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == f"error: --x must have n=4 characters, got {got}\n"


def _stdout(cli_args, openblas_threads=None):
    """CLI stdout with every thread variable unset, or with only OPENBLAS_NUM_THREADS set."""
    argv = [sys.executable, "-m", "querybound.cli", *cli_args]
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = str(openblas_threads)
    return subprocess.run(argv, env=env, capture_output=True, check=True, timeout=600).stdout


def _stdout_one_blas_thread_and_default(cli_args):
    """CLI stdout with OPENBLAS_NUM_THREADS=1, then with every thread variable unset."""
    return [_stdout(cli_args, openblas_threads=1), _stdout(cli_args)]


def test_claim1_sweep_bytes_independent_of_blas_threads():
    outputs = _stdout_one_blas_thread_and_default(
        ["claim1-sweep", "--ns", "12,15", "--trials", "1", "--seed", "20260814"])
    assert outputs[0].startswith(b"schema_version") and outputs[0] == outputs[1]


def test_claim1_sweep_bytes_independent_of_blas_threads_past_10000_strings():
    # B = 14893 at n = 16, T = 6: every Lanczos dot product runs on one thread
    outputs = _stdout_one_blas_thread_and_default(
        ["claim1-sweep", "--ns", "16", "--trials", "1", "--seed", "20260814"])
    assert outputs[0].startswith(b"schema_version") and outputs[0] == outputs[1]
    assert b",0.86639590997921601,0.86639590997921601," in outputs[0]


@pytest.mark.parametrize("seed", ["20260814", "2"])
def test_claim1_sweep_pool_equals_serial_past_10000_strings(seed):
    argv = ["claim1-sweep", "--ns", "15,16", "--trials", "1", "--seed", seed]
    serial, pooled = (_stdout([*argv, "--threads", k]) for k in ("1", "2"))
    assert serial.startswith(b"schema_version") and serial == pooled


def test_vandam_n20_bytes_independent_of_blas_threads():
    # n = 20 gathers rows of exact integer amplitudes from one half-cube table;
    # every mass and cumulative sum is an exact integer.
    outputs = _stdout_one_blas_thread_and_default(
        ["vandam", "--n", "20", "--eps", "0.1", "--x", "01101001110010110100",
         "--shots", "1000", "--seed", "1"])
    assert outputs[0].startswith(b"schema_version") and outputs[0] == outputs[1]


def test_vandam_n24_bytes_independent_of_blas_threads():
    # n = 24 searches exact integer masses: row masses, then cumulative
    # masses within one of the 13 rows of a half-cube table
    outputs = _stdout_one_blas_thread_and_default(
        ["vandam", "--n", "24", "--eps", "0.1", "--x", "110100101100011101001011",
         "--shots", "1000", "--seed", "1"])
    assert outputs[0].startswith(b"schema_version") and outputs[0] == outputs[1]


def test_pooled_certify_bytes_independent_of_blas_threads_and_equal_serial():
    # a pool runs each trial's BLAS on one thread: the dense eigvalsh digits
    # are those of a serial run under OPENBLAS_NUM_THREADS=1
    argv = ["certify", "--n", "16", "--eps", "0.15", "--trials", "2", "--seed", "3",
            "--include-family", "parity"]
    pooled = _stdout_one_blas_thread_and_default([*argv, "--threads", "2"])
    serial = _stdout([*argv, "--threads", "1"], openblas_threads=1)
    assert pooled[0].startswith(b"schema_version") and pooled[0] == pooled[1]
    assert pooled[0] == serial


def test_pooled_certify_trial_bytes_independent_of_trial_count():
    # a pool of one trial runs its BLAS on one thread as well, so a prefix of
    # trials prints the same digits when --trials grows
    argv = ["certify", "--n", "16", "--eps", "0.15", "--seed", "3", "--threads", "2"]
    one, two = (_stdout([*argv, "--trials", k]).splitlines() for k in ("1", "2"))
    assert one[1].startswith(b"1,certify,certificate,16,") and one[1] == two[1]
