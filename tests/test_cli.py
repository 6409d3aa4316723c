"""End-to-end tests for the ffprog command line.

Every test drives ``ffprog.cli.main`` in-process with an explicit argv and
reads the JSON-lines ledger back, so the envelope, the per-command record
shapes, the exit-code contract (0 ok / 1 usage / 2 failed check) and the
reproducibility guarantee are all exercised exactly as a shell user would
see them.
"""

import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ffprog
from ffprog import __version__, acceptance, cli
from ffprog.acceptance import CriterionResult
from ffprog.cli import main
from ffprog.errors import BudgetConditionWarning, BudgetExceeded
from ffprog.field import make_field
from ffprog.functions import constant_function
from ffprog.gowers import gowers_norm
from ffprog.rng import derive_seed


def run_cli(tmp_path, *argv, name="ledger.jsonl"):
    """Invoke main() with an --out ledger and return (exit code, records)."""
    out = tmp_path / name
    rc = main([*argv, "--out", str(out)])
    records = [json.loads(line) for line in out.read_text().splitlines()]
    return rc, records


def scrub(record):
    """Drop the wall-clock `timing` key so two ledgers can be compared."""
    rec = dict(record)
    rec.pop("timing", None)
    return rec


# --------------------------------------------------------------------------
# envelope and ledger conventions
# --------------------------------------------------------------------------

def test_count_envelope_structure(tmp_path):
    rc, recs = run_cli(tmp_path, "count", "--p", "7", "--polys", "y",
                       "--set", "all", "--seed", "5")
    assert rc == 0
    assert len(recs) == 1
    rec = recs[0]
    assert rec["schema"] == 1
    assert rec["tool"] == "ffprog"
    assert rec["version"] == __version__
    assert rec["command"] == "count"
    assert rec["seed"] == 5
    config = rec["config"]
    assert config["p"] == 7
    assert config["polys"] == "y"
    assert config["set"] == "all"
    # bookkeeping entries never leak into the echoed config
    assert "func" not in config
    assert "config" not in config
    assert None not in config.values()
    assert list(config) == sorted(config)


def test_auto_seed_is_generated_and_recorded(tmp_path):
    rc, recs = run_cli(tmp_path, "count", "--p", "7", "--polys", "y",
                       "--set", "all")
    assert rc == 0
    seed = recs[0]["seed"]
    assert isinstance(seed, int)
    assert 0 <= seed < 2 ** 64
    # the unset flag is dropped from the config echo rather than echoed null
    assert "seed" not in recs[0]["config"]


def test_stdout_is_the_default_sink(capsys):
    rc = main(["count", "--p", "7", "--polys", "y", "--set", "all",
               "--seed", "1"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    rec = json.loads(lines[0])
    assert rec["command"] == "count"
    assert "out" not in rec["config"]


def fake_criterion(index, passed):
    """An acceptance criterion that reports a new wall time on every call."""
    calls = itertools.count(1)

    def criterion():
        return CriterionResult(index, f"stub {index}", passed, "detail",
                               0.25 * next(calls))
    return criterion


# one run of every subcommand that writes records; CSV marks a --csv path
ENVELOPE_RUNS = [
    ("count", ["--p", "7", "--polys", "y", "--set", "random:0.5"], 0),
    ("norms", ["--p", "7", "--fn", "disk"], 0),
    ("weil-scan", ["--poly", "y^3", "--pmin", "5", "--pmax", "13",
                   "--csv", "CSV"], 0),
    ("base-scan", ["--p1", "y", "--pmin", "31", "--pmax", "31",
                   "--trials", "1", "--quiet-warnings"], 0),
    ("extremal", ["--p", "7", "--polys", "y,2y", "--csv", "CSV"], 0),
    ("decompose", ["--p", "101", "--fn", "phase",
                   "--deltas", "1/8,1/256,1/128,1/2", "--quiet-warnings"], 2),
    ("schedule", ["--s", "2", "--beta", "1", "--gamma", "1/2"], 0),
    ("cs-check", ["--p", "5", "--m", "1", "--s", "2", "--trials", "2"], 0),
    ("verify-theorem", ["--polys", "y,y^2", "--pmin", "31", "--pmax", "37",
                        "--trials", "1"], 0),
    ("acceptance", ["--quiet"], 2),
]


@pytest.mark.parametrize("command,argv,code", ENVELOPE_RUNS,
                         ids=[run[0] for run in ENVELOPE_RUNS])
def test_every_record_carries_the_envelope(tmp_path, monkeypatch, command,
                                           argv, code):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [fake_criterion(1, True), fake_criterion(2, False)])
    ledgers = []
    for name in ("one", "two"):
        run_argv = [str(tmp_path / f"{name}.csv") if a == "CSV" else a
                    for a in argv]
        rc, recs = run_cli(tmp_path, command, *run_argv, "--seed", "5",
                           name=f"{name}.jsonl")
        assert rc == code
        assert recs
        for rec in recs:
            assert rec["schema"] == 1
            assert rec["tool"] == "ffprog"
            assert rec["version"] == __version__
            assert rec["command"] == command
            assert rec["seed"] == 5
            assert not {"out", "csv", "quiet", "quiet_warnings",
                        "seed"} & set(rec["config"])
        if code == 2:
            assert recs[-1]["record"] == "failures"
        ledgers.append(recs)
    # --out and --csv differ between the runs: only `timing` may differ
    assert [scrub(r) for r in ledgers[0]] == [scrub(r) for r in ledgers[1]]


# --------------------------------------------------------------------------
# count
# --------------------------------------------------------------------------

def test_count_golden_record(tmp_path):
    rc, recs = run_cli(tmp_path, "count", "--p", "101", "--polys", "y,y^2",
                       "--set", "random:0.5:seed42", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["system"] == "[y, y^2]"
    assert rec["p"] == 101
    assert rec["k"] == 1
    assert rec["set"] == {"source": "random", "density": 0.5, "set_seed": 42}
    assert rec["set_size"] == 53
    assert rec["y_rule"] == "all"
    assert rec["count"] == 1492
    # three-term progressions: main term n^3 / q^1 * (q / q)
    assert rec["main_term"] == pytest.approx(53 ** 3 / 101, rel=1e-12)
    assert rec["error"] == pytest.approx(1492 - 53 ** 3 / 101, rel=1e-9)
    assert rec["bc_ratio"] == pytest.approx(
        abs(rec["error"]) / (53 ** 1.5 * 101 ** 0.4), rel=1e-12)


def test_count_full_set_has_zero_error(tmp_path):
    # A = F_q makes every progression land in the set, so the main term
    # n^{m+1} / q^{m-1} * (#y / q) is exact.
    rc, recs = run_cli(tmp_path, "count", "--p", "11", "--polys", "y,y^2",
                       "--set", "all", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["count"] == 11 ** 2
    assert rec["main_term"] == pytest.approx(11 ** 2)
    assert rec["error"] == pytest.approx(0.0, abs=1e-9)


def test_count_y_rule_split(tmp_path):
    # {1, 2, 4} in F_7 supports 5 progressions (x, x+y, x+y^2); three of
    # them are the y = 0 diagonal, so the nonzero rule keeps exactly 2.
    rc_all, recs_all = run_cli(tmp_path, "count", "--p", "7",
                               "--polys", "y,y^2", "--set", "explicit:1,2,4",
                               "--seed", "1", name="all.jsonl")
    rc_nz, recs_nz = run_cli(tmp_path, "count", "--p", "7",
                             "--polys", "y,y^2", "--set", "explicit:1,2,4",
                             "--y-rule", "nonzero", "--seed", "1",
                             name="nz.jsonl")
    assert rc_all == rc_nz == 0
    assert recs_all[0]["count"] == 5
    assert recs_nz[0]["count"] == 2
    assert recs_nz[0]["main_term"] == pytest.approx(3 ** 3 / 7 * (6 / 7))


def test_count_file_set_source(tmp_path):
    path = tmp_path / "set.json"
    path.write_text(json.dumps([0, 1, 3]))
    rc, recs = run_cli(tmp_path, "count", "--p", "7", "--polys", "y",
                       "--set", f"file:{path}", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["set"] == {"source": "file", "path": str(path)}
    assert rec["set_size"] == 3
    # single-polynomial count over all shifts is sum_y |A cap (A-y)| = |A|^2
    assert rec["count"] == 9
    assert rec["main_term"] == pytest.approx(9.0)


def test_count_set_indices_are_elements_on_extension_fields(tmp_path):
    # indices name elements in enumeration order, not F_p constants: the
    # elements at 0, 7, 13, 24 of GF(25) hold 4 progressions (x, x+y, x+y^2),
    # the constants {0, 2, 3, 4} would hold 13
    rc, recs = run_cli(tmp_path, "count", "--p", "5", "--k", "2",
                       "--polys", "y,y^2", "--set", "explicit:0,7,13,24",
                       "--seed", "1")
    assert rc == 0
    assert recs[0]["set_size"] == 4
    assert recs[0]["count"] == 4


def test_count_set_seed_overrides_run_seed(tmp_path):
    # random:DENSITY:seedN pins the subset, so the run seed only changes
    # the envelope, never the data.
    _, recs1 = run_cli(tmp_path, "count", "--p", "101", "--polys", "y,y^2",
                       "--set", "random:0.5:seed42", "--seed", "1",
                       name="a.jsonl")
    _, recs2 = run_cli(tmp_path, "count", "--p", "101", "--polys", "y,y^2",
                       "--set", "random:0.5:seed42", "--seed", "2",
                       name="b.jsonl")
    assert recs1[0]["count"] == recs2[0]["count"] == 1492
    assert recs1[0]["set_size"] == recs2[0]["set_size"] == 53
    assert recs1[0]["seed"] != recs2[0]["seed"]


def test_count_reruns_are_identical(tmp_path):
    argv = ("count", "--p", "31", "--polys", "y,2y", "--set", "random:0.4",
            "--seed", "77")
    rc1, recs1 = run_cli(tmp_path, *argv, name="one.jsonl")
    rc2, recs2 = run_cli(tmp_path, *argv, name="two.jsonl")
    assert rc1 == rc2 == 0
    assert [scrub(r) for r in recs1] == [scrub(r) for r in recs2]


# --------------------------------------------------------------------------
# norms
# --------------------------------------------------------------------------

def test_norms_golden_record(tmp_path):
    rc, recs = run_cli(tmp_path, "norms", "--p", "7", "--fn", "balanced",
                       "--set", "explicit:0,1,3", "--s", "2", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["value"] == pytest.approx(0.31619483420009187, rel=1e-12)
    assert rec["raw_power"] == pytest.approx(rec["value"] ** 4, rel=1e-12)
    assert rec["fourier_value"] == pytest.approx(rec["value"], abs=1e-10)
    assert rec["dual_upper_bound"] == pytest.approx(1.2121830534626528,
                                                    rel=1e-12)
    assert rec["set_size"] == 3
    assert rec["fn"] == "balanced"


def test_norms_fourier_extras_only_at_s2(tmp_path):
    rc, recs = run_cli(tmp_path, "norms", "--p", "7", "--fn", "balanced",
                       "--set", "explicit:0,1,3", "--s", "3", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["s"] == 3
    assert "fourier_value" not in rec
    assert "dual_upper_bound" not in rec
    assert 0.0 <= rec["value"] <= 1.0


def test_norms_spike_echoes_its_character(tmp_path):
    rc, recs = run_cli(tmp_path, "norms", "--p", "31", "--fn", "spike",
                       "--seed", "9")
    assert rc == 0
    rec = recs[0]
    assert rec["fn"] == "spike"
    assert 1 <= rec["character"] < 31
    # a spike is one character plus a few percent of noise: U^2 is near 1
    assert rec["value"] > 0.9


# --------------------------------------------------------------------------
# weil-scan
# --------------------------------------------------------------------------

def test_weil_scan_rows_and_csv(tmp_path):
    csv_path = tmp_path / "scan.csv"
    rc, recs = run_cli(tmp_path, "weil-scan", "--poly", "y^3",
                       "--pmin", "5", "--pmax", "13",
                       "--seed", "2", "--csv", str(csv_path))
    assert rc == 0
    assert [r["p"] for r in recs] == [5, 7, 11, 13]
    for rec in recs:
        assert rec["degree"] == 3
        assert rec["bound"] == 2.0
        assert rec["within"] is True
        assert rec["max_scaled"] <= 2.0 + 1e-9
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "p,max_scaled,bound"
    assert len(lines) == 5
    assert lines[1].split(",")[0] == "5"


# --------------------------------------------------------------------------
# base-scan and verify-theorem
# --------------------------------------------------------------------------

def test_base_scan_untwisted_record(tmp_path):
    rc, recs = run_cli(tmp_path, "base-scan", "--p1", "y", "--pmin", "31",
                       "--pmax", "31", "--trials", "2", "--seed", "4",
                       "--quiet-warnings")
    assert rc == 0
    assert [r["trial"] for r in recs] == [0, 1]
    for rec in recs:
        assert rec["p"] == 31
        assert rec["trivial_twist"] is True
        # untwisted single-polynomial averages hit the main term exactly
        assert rec["abs_error"] < 1e-12
        assert rec["value_re"] == pytest.approx(rec["main_re"], abs=1e-12)
        assert abs(rec["value_im"]) < 1e-12


def test_verify_theorem_rows_and_fit(tmp_path):
    rc, recs = run_cli(tmp_path, "verify-theorem", "--polys", "y,y^2",
                       "--pmin", "31", "--pmax", "37", "--trials", "1",
                       "--density", "0.5", "--seed", "6")
    assert rc == 0
    fit = recs[-1]
    rows = recs[:-1]
    assert fit["record"] == "fit"
    assert fit["note"] == "empirical evidence only"
    assert fit["rows"] == len(rows) == 2
    assert fit["points"] == 2
    assert fit["below_threshold"] == []
    assert isinstance(fit["error_exponent"], float)
    assert {r["p"] for r in rows} == {31, 37}
    for row in rows:
        assert row["scaled_error"] == pytest.approx(
            abs(row["value_re"] + 1j * row["value_im"] - row["main_term"])
            * row["p"] ** 2, rel=1e-9)


def test_verify_theorem_refuses_primes_below_threshold(tmp_path, capsys):
    rc = main(["verify-theorem", "--polys", "2y,3y^2", "--pmin", "2",
               "--pmax", "3", "--trials", "1", "--seed", "6",
               "--out", str(tmp_path / "v.jsonl")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "below the system threshold" in err
    assert "--allow-below-threshold" in err


def test_verify_theorem_refuses_psi_without_twists(tmp_path, capsys):
    rc = main(["verify-theorem", "--polys", "y,y^2", "--psi", "3",
               "--pmin", "31", "--pmax", "31", "--trials", "1",
               "--out", str(tmp_path / "v.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["ffprog: error: need 0 twist functions, got 1"]


def test_verify_theorem_reads_psi_labels_mod_p(tmp_path):
    # psi = 31 and 62 name the trivial character on F_31, as psi = 0 does
    rows = {}
    for psi in ("0", "31", "62"):
        rc, recs = run_cli(tmp_path, "verify-theorem", "--polys", "y",
                           "--qs", "y^2", "--psi", psi, "--pmin", "31",
                           "--pmax", "31", "--trials", "1", "--seed", "3")
        assert rc == 0
        rows[psi] = recs[0]
    for psi in ("31", "62"):
        for key in ("main_term", "value_re", "value_im"):
            assert rows[psi][key] == rows["0"][key]
        assert rows[psi]["scaled_error"] < 1e-9


# --------------------------------------------------------------------------
# extremal
# --------------------------------------------------------------------------

def test_extremal_records_and_csv(tmp_path):
    csv_path = tmp_path / "gamma.csv"
    rc, recs = run_cli(tmp_path, "extremal", "--p", "5,7", "--polys", "y,2y",
                       "--seed", "3", "--csv", str(csv_path))
    assert rc == 0
    # both degeneracy policies for each prime, in order
    assert [(r["p"], r["policy"]) for r in recs] == [
        (5, "paper_literal"), (5, "distinct_points"),
        (7, "paper_literal"), (7, "distinct_points")]
    by_p = {(r["p"], r["policy"]): r for r in recs}
    assert by_p[(5, "paper_literal")]["r"] == 2
    assert by_p[(7, "paper_literal")]["r"] == 3
    for rec in recs:
        assert rec["system"] == "[y, 2y]"
        assert rec["exact"] is True
        assert len(rec["witness"]) == rec["r"]
        assert rec["work"]["nodes"] >= 1
        assert isinstance(rec["timing"]["ms"], int)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "q,r,exact,gamma_point"
    assert len(lines) == 3  # first policy only
    q, r, exact, gamma_point = lines[1].split(",")
    assert (q, r, exact) == ("5", "2", "True")
    assert float(gamma_point) == pytest.approx(1 - math.log(2) / math.log(5))


@pytest.mark.parametrize("polys,fixed", [("y,2y", 2), ("y,y^2", 1)])
def test_extremal_records_count_edges_and_fixed_vertices(tmp_path, polys,
                                                         fixed):
    # (y, 2y) is invariant under x -> a x as well as x -> x + c, so the
    # search fixes two vertices at the root; (y, y^2) only one
    rc, recs = run_cli(tmp_path, "extremal", "--p", "11,13", "--polys", polys,
                       "--seed", "2")
    assert rc == 0 and len(recs) == 4
    field_edges = {
        (rec["p"], rec["policy"]): len(ffprog.build_hypergraph(
            ffprog.progression_system(polys.split(",")),
            make_field(rec["p"]), degeneracy=rec["policy"]).edges)
        for rec in recs}
    for rec in recs:
        assert rec["work"]["fixed"] == fixed
        assert rec["work"]["edges"] == field_edges[(rec["p"], rec["policy"])]
    rc, recs = run_cli(tmp_path, "extremal", "--p", "11", "--polys", polys,
                       "--method", "random", "--iters", "3", "--seed", "2",
                       name="random.jsonl")
    assert rc == 0
    assert all("fixed" not in rec["work"] and rec["work"]["edges"] > 0
               for rec in recs)


def test_extremal_reruns_are_identical_modulo_timing(tmp_path):
    argv = ("extremal", "--p", "7", "--polys", "y,2y", "--seed", "3")
    rc1, recs1 = run_cli(tmp_path, *argv, name="one.jsonl")
    rc2, recs2 = run_cli(tmp_path, *argv, name="two.jsonl")
    assert rc1 == rc2 == 0
    assert [scrub(r) for r in recs1] == [scrub(r) for r in recs2]


def test_extremal_random_method_records_derived_seed(tmp_path):
    rc, recs = run_cli(tmp_path, "extremal", "--p", "7", "--polys", "y,2y",
                       "--method", "random", "--iters", "25", "--seed", "3",
                       "--degeneracy", "paper_literal")
    assert rc == 0
    rec = recs[0]
    assert rec["exact"] is False
    assert rec["seed"] == 3  # the envelope keeps the run's own seed
    assert rec["derived_seed"] == derive_seed(3, 7)
    assert "r_upper" not in rec
    assert 1 <= rec["r"] <= 3  # never beats the exact optimum of 3
    assert len(rec["witness"]) == rec["r"]


@pytest.mark.parametrize("method", ["random", "exact"])
def test_extremal_record_replays_from_its_config_and_seed(tmp_path, method):
    # no --seed: the run draws one, and its records must say which
    rc, recs = run_cli(tmp_path, "extremal", "--p", "31,37", "--polys", "y,y^2",
                       "--method", method, "--iters", "5", name="run.jsonl")
    assert rc == 0 and len({rec["seed"] for rec in recs}) == 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(recs[0]["config"]))
    rc, again = run_cli(tmp_path, "extremal", "--config", str(cfg),
                        "--seed", str(recs[0]["seed"]), name="again.jsonl")
    assert rc == 0
    assert [(r["r"], r["witness"]) for r in again] == \
        [(r["r"], r["witness"]) for r in recs]


def test_extremal_exact_records_bracket_r(tmp_path):
    rc, recs = run_cli(tmp_path, "extremal", "--p", "31", "--polys", "y,y^2",
                       "--degeneracy", "paper_literal", "--node-budget", "50",
                       "--seed", "1", name="cut.jsonl")
    rc_full, full = run_cli(tmp_path, "extremal", "--p", "31", "--polys",
                            "y,y^2", "--degeneracy", "paper_literal",
                            "--seed", "1", name="full.jsonl")
    assert rc == rc_full == 0
    (cut,), (done,) = recs, full
    assert cut["exact"] is False and done["exact"] is True
    assert done["r_upper"] == done["r"]
    assert cut["r"] <= done["r"] <= cut["r_upper"]
    assert "derived_seed" not in done


def test_records_never_override_the_envelope(tmp_path):
    args = cli.build_parser().parse_args(["count", "--p", "7", "--polys", "y"])
    ledger = cli.Ledger(args, 5)
    with pytest.raises(ValueError, match="seed"):
        ledger.write(seed=6)


def test_extremal_refuses_every_q_before_the_first_build(tmp_path, capsys,
                                                         monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a hypergraph was built")

    monkeypatch.setattr(cli, "build_hypergraph", refuse)
    out = tmp_path / "x.jsonl"
    rc = main(["extremal", "--p", "31,1009", "--polys", "y,y^2",
               "--out", str(out)])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == ["ffprog: error: bitset search capped at q <= 512, "
                   "got q = 1009"]
    assert not out.exists()  # p = 31 wrote no record first


# --------------------------------------------------------------------------
# decompose
# --------------------------------------------------------------------------

def test_decompose_spike_is_certified(tmp_path):
    rc, recs = run_cli(tmp_path, "decompose", "--p", "101", "--fn", "spike",
                       "--seed", "11", "--quiet-warnings")
    assert rc == 0
    rec = recs[0]
    assert rec["deltas"] == ["1/256", "1/8192", "1/4096", "1/512"]
    assert rec["thresholds"] == pytest.approx(
        [101 ** (1 / 256), 101 ** (-1 / 8192),
         101 ** (1 / 4096), 101 ** (-1 / 512)], rel=1e-12)
    assert rec["tau"] == pytest.approx(2 ** -7)
    assert rec["producer_status"] == "certified"
    assert rec["verifier_status"] == "certified"
    certs = rec["certificates"]
    assert certs["dual_bound"] <= rec["thresholds"][0]
    assert certs["l1_fb"] == 0.0  # the thresholding producer never uses fb
    assert certs["linf_fc"] <= rec["thresholds"][2]
    assert certs["usnorm_fc"] <= rec["thresholds"][3]
    assert rec["fn"] == "spike"
    assert 1 <= rec["character"] < 101


def test_decompose_emits_budget_condition_warning(tmp_path):
    # desk-scale q cannot satisfy the asymptotic budget condition; the run
    # still proceeds and certifies, but says so unless --quiet-warnings
    with pytest.warns(BudgetConditionWarning, match="not guaranteed"):
        rc = main(["decompose", "--p", "101", "--fn", "spike", "--seed", "11",
                   "--out", str(tmp_path / "d.jsonl")])
    assert rc == 0


def test_decompose_impossible_budget_exits_2(tmp_path):
    # a random phase function spreads its spectrum too thin: pushing the
    # uniform part below q^{-1/2} would blow the dual-norm budget, so every
    # cut fails and the failure is recorded honestly
    rc, recs = run_cli(tmp_path, "decompose", "--p", "101", "--fn", "phase",
                       "--seed", "7", "--deltas", "1/8,1/256,1/128,1/2",
                       "--quiet-warnings")
    assert rc == 2
    assert recs[0]["verifier_status"] == "failed"
    assert recs[-1]["record"] == "failures"
    assert recs[-1]["failures"][0]["check"] == "decomposition"


def test_decompose_rejects_malformed_deltas(tmp_path, capsys):
    rc = main(["decompose", "--deltas", "1/8,1/256,1/128",
               "--out", str(tmp_path / "d.jsonl")])
    assert rc == 1
    assert "four comma-separated rationals" in capsys.readouterr().err


def test_decompose_refuses_the_verifier_budget_before_the_producer(
        tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("the producer ran")

    monkeypatch.setattr(cli, "u2_threshold_decompose", refuse)
    rc = main(["decompose", "--p", "262139", "--fn", "spike",
               "--out", str(tmp_path / "d.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    # the message the verifier's naive U^2 of fc gives
    with pytest.raises(BudgetExceeded) as refused:
        gowers_norm(constant_function(make_field(262139), 0), 2)
    assert err == [f"ffprog: error: {refused.value}"]


def test_count_refuses_the_translate_extension_in_one_line(tmp_path, capsys,
                                                           monkeypatch):
    # GF(2^10) extends to 3^10 values, one over the lowered budget
    monkeypatch.setattr("ffprog.errors.BUDGET", 3 ** 10 - 1)
    rc = main(["count", "--p", "2", "--k", "10", "--polys", "y,y^2",
               "--set", "explicit:0,1,5", "--out", str(tmp_path / "c.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.splitlines() == [
        "ffprog: error: translates on q = 1024 extend to (2p - 1)^k = 59049 "
        "int64 values (0 MiB), over the budget of 59048 values"]


def run_ffprog(*argv):
    """Run the command line in a fresh interpreter: (exit code, stderr)."""
    env = {**os.environ,
           "PYTHONPATH": str(Path(ffprog.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-m", "ffprog.cli", *argv],
                          capture_output=True, text=True, env=env)
    return proc.returncode, proc.stderr


def test_decompose_warns_once_on_stderr(tmp_path):
    # producer and verifier both find the budget condition failing
    rc, err = run_ffprog("decompose", "--p", "101", "--seed", "11",
                         "--out", str(tmp_path / "d.jsonl"))
    assert rc == 0
    assert err.count("BudgetConditionWarning") == 1


def test_decompose_quiet_warnings_prints_nothing(tmp_path):
    rc, err = run_ffprog("decompose", "--p", "101", "--seed", "11",
                         "--quiet-warnings", "--out", str(tmp_path / "d.jsonl"))
    assert rc == 0
    assert err == ""


# --------------------------------------------------------------------------
# schedule
# --------------------------------------------------------------------------

def test_schedule_record_structure(tmp_path):
    rc, recs = run_cli(tmp_path, "schedule", "--s", "2", "--beta", "1",
                       "--gamma", "1/2", "--q", "101", "--seed", "1")
    assert rc == 0
    rec = recs[0]
    assert rec["s"] == 2
    assert rec["beta"] == "1"
    assert rec["gamma"] == "1/2"
    (level,) = rec["levels"]
    assert level["ell"] == 2
    assert level["deltas"] == ["1/256", "1/8192", "1/4096", "1/512"]
    assert level["deltas_float"] == pytest.approx(
        [1 / 256, 1 / 8192, 1 / 4096, 1 / 512])
    assert level["budget_ok"] is False  # q = 101 is far too small
    assert level["budget_lhs"] > 0.5
    neg = rec["negativity"]
    assert neg["all_ok"] is True
    assert len(neg["checks"]) == 4
    assert all(c["ok"] for c in neg["checks"])
    for check in neg["checks"]:
        # exponents and ceilings are exact rationals rendered as strings
        assert "/" in check["exponent"] or check["exponent"].lstrip("-").isdigit()
    recursion = rec["recursion"]
    assert recursion["final_ell"] == 1
    assert recursion["b2"] == "1/2"
    assert recursion["u1_exponent"] == "1/2"
    assert recursion["constants_dropped"] is True
    assert recursion["final_coeff"] == pytest.approx(recursion["b1"])


def test_schedule_larger_s_at_large_q(tmp_path):
    rc, recs = run_cli(tmp_path, "schedule", "--s", "3", "--beta", "1",
                       "--gamma", "1/2", "--q", "1e200", "--seed", "1",
                       name="big.jsonl")
    assert rc == 0
    rec = recs[0]
    assert [lv["ell"] for lv in rec["levels"]] == [2, 3]
    assert rec["negativity"]["all_ok"] is True
    assert len(rec["negativity"]["checks"]) == 2 + 1 + 4
    # the level budgets shrink monotonically as q grows
    _, small = run_cli(tmp_path, "schedule", "--s", "3", "--beta", "1",
                       "--gamma", "1/2", "--q", "1e8", "--seed", "1",
                       name="small.jsonl")
    for big_lv, small_lv in zip(rec["levels"], small[0]["levels"]):
        assert 0.0 < big_lv["budget_lhs"] < small_lv["budget_lhs"]


# --------------------------------------------------------------------------
# cs-check
# --------------------------------------------------------------------------

def test_cs_check_holds_on_random_instances(tmp_path):
    rc, recs = run_cli(tmp_path, "cs-check", "--p", "5", "--m", "1",
                       "--s", "2", "--trials", "3", "--seed", "9")
    assert rc == 0
    assert [r["trial"] for r in recs] == [0, 1, 2]
    for rec in recs:
        assert rec["holds"] is True
        assert rec["lhs"] <= rec["rhs"] + 1e-9
        # s = 2 is the exact Cauchy-Schwarz identity, not just a bound
        assert rec["lhs"] == pytest.approx(rec["rhs"], rel=1e-9)


def test_cs_check_reruns_are_identical(tmp_path):
    argv = ("cs-check", "--p", "5", "--m", "2", "--s", "3", "--trials", "2",
            "--seed", "12")
    rc1, recs1 = run_cli(tmp_path, *argv, name="one.jsonl")
    rc2, recs2 = run_cli(tmp_path, *argv, name="two.jsonl")
    assert rc1 == rc2 == 0
    assert [scrub(r) for r in recs1] == [scrub(r) for r in recs2]
    assert all(r["holds"] for r in recs1)


def test_cs_check_refuses_its_budget_before_the_first_draw(tmp_path, capsys,
                                                           monkeypatch):
    def refuse(*args):
        raise AssertionError("a factor was drawn")

    monkeypatch.setattr(cli, "_random_two_var", refuse)
    rc = main(["cs-check", "--p", "211", "--s", "3",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    # the message check_cs_inequality itself gives
    assert err == [err[0]] and ("holds 2 q^s = 18787862 complex values "
                                "(287 MiB), over the budget") in err[0]


def test_unfactorable_determinant_is_one_line_error(tmp_path, capsys):
    det = (10 ** 18 + 3) * (10 ** 18 + 9)   # past the factoring cap
    rc = main(["count", "--p", "7", "--polys", f"y,{det}y^2",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [err[0]] and f"cannot factor {det}" in err[0]


# --------------------------------------------------------------------------
# exit codes, config files, parser plumbing
# --------------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    # below the threshold: refused before any record
    ["verify-theorem", "--polys", "2y,3y^2", "--pmin", "2", "--pmax", "3"],
    # refused after the CSV header is queued: 4 is not prime
    ["extremal", "--p", "4", "--polys", "y,y^2", "--csv", "CSV"],
    ["weil-scan", "--poly", "y^", "--csv", "CSV"],
], ids=["verify-theorem", "extremal", "weil-scan"])
def test_refused_run_leaves_existing_files_byte_for_byte(tmp_path, capsys,
                                                         argv):
    out, csv_path = tmp_path / "t1.jsonl", tmp_path / "t1.csv"
    out.write_bytes(b'{"earlier": 1}\n')
    csv_path.write_bytes(b"earlier,row\r\n")
    argv = [str(csv_path) if a == "CSV" else a for a in argv]
    rc = main(argv + ["--seed", "1", "--out", str(out)])
    capsys.readouterr()
    assert rc == 1
    assert out.read_bytes() == b'{"earlier": 1}\n'
    assert csv_path.read_bytes() == b"earlier,row\r\n"


def test_finished_run_leaves_exactly_its_own_records(tmp_path):
    out, csv_path = tmp_path / "t1.jsonl", tmp_path / "t1.csv"
    for path in (out, csv_path):
        path.write_text("earlier\n" * 3)
    # an empty prime range: exit 0, no records, only the CSV header
    rc = main(["weil-scan", "--poly", "y^3", "--pmin", "10", "--pmax", "5",
               "--seed", "1", "--out", str(out), "--csv", str(csv_path)])
    assert rc == 0
    assert out.read_text() == ""
    assert csv_path.read_text().splitlines() == ["p,max_scaled,bound"]
    # a run with records replaces the old contents with them alone
    rc, recs = run_cli(tmp_path, "weil-scan", "--poly", "y^3", "--pmin", "5",
                       "--pmax", "7", "--seed", "1", "--csv", str(csv_path),
                       name="t1.jsonl")
    assert rc == 0
    assert [r["p"] for r in recs] == [5, 7]
    assert len(csv_path.read_text().splitlines()) == 3

# flag values that only the subcommand reads: each must exit 1 with one line
BAD_VALUES = [
    ["extremal", "--p", "5,x", "--polys", "y"],
    ["base-scan", "--p1", "y", "--qs", "y^2", "--psi", "x"],
    ["verify-theorem", "--polys", "y", "--qs", "y^2", "--psi", "1,x"],
    ["schedule", "--s", "2", "--beta", "1", "--gamma", "1/2", "--q", "abc"],
    ["schedule", "--s", "2", "--beta", "abc", "--gamma", "1/2"],
    ["schedule", "--s", "2", "--beta", "1", "--gamma", "1/2",
     "--gamma-prime", "1/0"],
    ["decompose", "--deltas", "1/0,1,1,1"],
    ["decompose", "--gamma", "x"],
]


@pytest.mark.parametrize("argv", [
    ["count", "--p", "101"],                                # missing --polys
    ["count", "--p", "101", "--polys", "y", "--bogus"],     # unknown flag
    ["count", "--p", "101", "--polys", "y", "--set", "bogus:1"],
    ["count", "--p", "100", "--polys", "y"],                # composite
    ["count", "--p", "18446744073709551629", "--polys", "y"],  # >= 2^64
    ["count", "--p", "7", "--polys", "y", "--set", "explicit:0,99"],
    ["extremal", "--polys", "y"],                           # missing --p
    ["schedule", "--s", "2", "--beta", "1"],                # missing --gamma
    ["weil-scan"],                                          # missing --poly
    ["nonsense"],                                           # unknown command
    [],                                                     # no command
    ["count", "--p", "7", "--polys", "y", "--set", "random:1.5"],
    ["count", "--p", "7", "--polys", "y", "--set", "random:-1"],
    ["count", "--p", "7", "--polys", "y", "--set", "random:abc"],
    ["count", "--p", "7", "--polys", "y", "--set", "explicit:1,x"],
    *BAD_VALUES,
    ["verify-theorem", "--polys", "y,y^2", "--pmin", "31", "--pmax", "37",
     "--trials", "1", "--density", "2.5"],
    ["base-scan", "--p1", "y", "--pmin", "31", "--pmax", "31",
     "--density", "-1"],
    ["cs-check", "--p", "4001", "--s", "2"],    # 2 q^s over the budget
    ["extremal", "--p", "1009", "--polys", "y,y^2"],   # over the bitset cap
    ["decompose", "--p", "262139", "--fn", "spike"],   # verifier's q^2
])
def test_usage_errors_exit_1(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "x.jsonl")]
              if argv and argv[0] != "nonsense" and argv != [] else argv)
    capsys.readouterr()  # swallow the usage noise
    assert rc == 1


@pytest.mark.parametrize("argv", [
    ["count", "--p", "7", "--polys", "y", "--set", "random:1.5"],
    ["verify-theorem", "--polys", "y,y^2", "--pmin", "31", "--pmax", "37",
     "--trials", "1", "--density", "2.5"],
    ["base-scan", "--p1", "y", "--pmin", "31", "--pmax", "31",
     "--density", "-1"],
    ["base-scan", "--p1", "y", "--pmin", "31", "--pmax", "31",
     "--density", "nan"],
], ids=["set-source", "verify-theorem", "base-scan", "base-scan-nan"])
def test_density_outside_unit_interval_is_one_line_error(tmp_path, capsys,
                                                         argv):
    rc = main(argv + ["--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [err[0]] and "density must lie in [0, 1]" in err[0]


@pytest.mark.parametrize("argv", [
    ["extremal", "--p", "7", "--polys", "y,2y", "--node-budget", "-1"],
    ["extremal", "--p", "7", "--polys", "y,2y", "--method", "random",
     "--iters", "-1"],
    ["base-scan", "--p1", "y", "--pmin", "31", "--pmax", "31",
     "--trials", "-3"],
    ["cs-check", "--p", "5", "--m", "1", "--s", "2", "--trials", "-1"],
    ["verify-theorem", "--polys", "y,y^2", "--pmin", "31", "--pmax", "31",
     "--trials", "-3"],
], ids=["node-budget", "iters", "base-scan", "cs-check", "verify-theorem"])
def test_negative_counts_are_refused(tmp_path, capsys, argv):
    out = tmp_path / "x.jsonl"
    rc = main(argv + ["--out", str(out)])
    flag, value = argv[-2:]
    assert rc == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"ffprog {argv[0]}: error: argument {flag}: must be >= 0, got {value}")
    assert not out.exists()


@pytest.mark.parametrize("p1,qs", [("y + 1", "y^2"), ("y", "y^2 + 2")])
def test_base_scan_refuses_a_nonzero_constant_term(tmp_path, capsys, p1, qs):
    rc = main(["base-scan", "--p1", p1, "--qs", qs, "--psi", "1",
               "--pmin", "31", "--pmax", "31",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [err[0]] and "does not vanish at y = 0" in err[0]


@pytest.mark.parametrize("argv,message", [
    (["--p1", "y+1"], "does not vanish at y = 0"),
    (["--p1", "y", "--qs", "2y"], "dependence witness"),
])
def test_base_scan_refuses_a_bad_system_with_no_prime_in_range(
        tmp_path, capsys, argv, message):
    # 10 is not prime, so the sweep is empty; the system is still checked
    rc = main(["base-scan", *argv, "--pmin", "10", "--pmax", "10",
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert err == [err[0]] and message in err[0]


@pytest.mark.parametrize("argv", BAD_VALUES)
def test_bad_flag_values_are_one_line_errors(tmp_path, capsys, argv):
    rc = main(argv + ["--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err.splitlines()
    assert rc == 1
    assert len(err) == 1
    assert err[0].startswith("ffprog: error: bad --")


@pytest.mark.parametrize("p,primes", [(31, [31]), ("29,31", [29, 31])])
def test_config_p_may_be_one_prime_or_a_list(tmp_path, p, primes):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p, "polys": "y,2y",
                               "degeneracy": "paper_literal"}))
    rc, recs = run_cli(tmp_path, "extremal", "--config", str(cfg),
                       "--seed", "1")
    assert rc == 0
    assert [r["p"] for r in recs] == primes
    assert recs[0]["config"]["p"] == str(p)


def config_entries(argv):
    """The flags of `argv` as --config entries: integers as JSON numbers,
    bare switches as true, everything else as strings."""
    entries = {}
    for i, token in enumerate(argv):
        if token.startswith("--"):
            value = argv[i + 1] if i + 1 < len(argv) else None
            if value is None or value.startswith("--"):
                value = True
            elif value.lstrip("-").isdigit():
                value = int(value)
            entries[token[2:].replace("-", "_")] = value
    return entries


@pytest.mark.parametrize("command,argv,code", ENVELOPE_RUNS,
                         ids=[run[0] for run in ENVELOPE_RUNS])
def test_config_file_runs_write_the_argv_records(tmp_path, monkeypatch,
                                                 command, argv, code):
    monkeypatch.setattr(acceptance, "CRITERIA",
                        [fake_criterion(1, True), fake_criterion(2, False)])
    argv = [str(tmp_path / "run.csv") if a == "CSV" else a for a in argv]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config_entries(argv)))
    rc_flags, by_flags = run_cli(tmp_path, command, *argv, "--seed", "5",
                                 name="flags.jsonl")
    rc_file, by_file = run_cli(tmp_path, command, "--config", str(cfg),
                               "--seed", "5", name="file.jsonl")
    assert rc_flags == rc_file == code
    assert [scrub(r) for r in by_flags] == [scrub(r) for r in by_file]


# --config values that argparse's type/choices checks, or the subcommand,
# must refuse exactly as it refuses the same typed flag
BAD_CONFIGS = [
    ("extremal", {"p": 7, "polys": "y,2y", "method": "bogus"}),
    ("count", {"p": 7, "polys": "y", "seed": 1.5}),
    ("count", {"p": 7, "polys": 5}),
    ("count", {"p": 7, "polys": "y", "set": 5}),
    ("base-scan", {"p1": "y", "pmin": 31, "pmax": 31, "trials": 2.5}),
    ("decompose", {"quiet_warnings": "no"}),
    ("count", '{"p": 7, "polys": "y"'),                     # bad JSON
    ("count", "5"),                                         # not an object
]


@pytest.mark.parametrize("command,entries", BAD_CONFIGS)
def test_bad_config_values_exit_1(tmp_path, capsys, command, entries):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(entries if isinstance(entries, str) else json.dumps(entries))
    rc = main([command, "--config", str(cfg),
               "--out", str(tmp_path / "x.jsonl")])
    err = capsys.readouterr().err
    assert rc == 1
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(("ffprog: error: ",
                                            f"ffprog {command}: error: "))


def test_config_value_may_start_with_a_dash(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": 7, "polys": "-y,y^2", "set": "all"}))
    rc, recs = run_cli(tmp_path, "count", "--config", str(cfg), "--seed", "1")
    assert rc == 0
    assert recs[0]["system"] == "[-y, y^2]"
    assert recs[0]["count"] == 49


def test_config_file_supplies_required_flags(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"polys": "y,y^2", "p": 11, "set": "all"}))
    rc, recs = run_cli(tmp_path, "count", "--config", str(cfg), "--seed", "5")
    assert rc == 0
    assert recs[0]["p"] == 11
    assert recs[0]["count"] == 121


def test_explicit_flags_beat_config_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"polys": "y,y^2", "p": 11, "set": "all"}))
    rc, recs = run_cli(tmp_path, "count", "--config", str(cfg),
                       "--p", "7", "--seed", "5")
    assert rc == 0
    assert recs[0]["p"] == 7
    assert recs[0]["count"] == 49


def test_unknown_config_keys_are_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"whatever": 3}))
    rc = main(["count", "--p", "7", "--polys", "y", "--config", str(cfg),
               "--out", str(tmp_path / "x.jsonl")])
    assert rc == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_version_flag(capsys):
    rc = main(["--version"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == f"ffprog {__version__}"


def test_subcommand_help_exits_0(capsys):
    rc = main(["acceptance", "--help"])
    assert rc == 0
    assert "usage" in capsys.readouterr().out

